(* Log-scale latency histogram: bucket [i] counts observations whose
   duration in nanoseconds has [i] significant bits, i.e. falls in
   [2^(i-1), 2^i) ns; 0 and 1 ns share bucket 0.  64 buckets cover the
   whole int range, so a fixed array suffices and merging is bucket-wise
   addition.  Durations and their sum are integer nanoseconds: recording
   one is integer work with no allocation. *)

let nbuckets = 64

type t = {
  live : int array;
  mutable live_sum : int;  (* ns *)
  mutable live_total : int;
}

type snap = { counts : int array; sum : float; total : int }

let create () = { live = Array.make nbuckets 0; live_sum = 0; live_total = 0 }

(* The significant bits of [n >= 1], by halving the range searched: six
   tests, no loop. *)
let bits n =
  let n = ref n and b = ref 1 in
  if !n lsr 32 <> 0 then (n := !n lsr 32; b := !b + 32);
  if !n lsr 16 <> 0 then (n := !n lsr 16; b := !b + 16);
  if !n lsr 8 <> 0 then (n := !n lsr 8; b := !b + 8);
  if !n lsr 4 <> 0 then (n := !n lsr 4; b := !b + 4);
  if !n lsr 2 <> 0 then (n := !n lsr 2; b := !b + 2);
  if !n lsr 1 <> 0 then b := !b + 1;
  !b

let bucket_of_ns n = if n <= 1 then 0 else bits n

(* Negative and NaN durations clamp to zero, ones past the int range to
   [max_int]. *)
let ns_of_seconds s =
  let ns = s *. 1e9 in
  if Float.is_nan ns || ns <= 0.0 then 0
  else if ns >= 4.6e18 then max_int
  else int_of_float (ns +. 0.5)

let bucket_of_seconds s = bucket_of_ns (ns_of_seconds s)

let bucket_upper i = Float.ldexp 1.0 i /. 1e9
(* seconds; upper bound (exclusive) of bucket [i] *)

let observe_ns t ns =
  let ns = if ns < 0 then 0 else ns in
  let i = bucket_of_ns ns in
  t.live.(i) <- t.live.(i) + 1;
  t.live_sum <- t.live_sum + ns;
  t.live_total <- t.live_total + 1

let observe t s = observe_ns t (ns_of_seconds s)

let reset t =
  Array.fill t.live 0 nbuckets 0;
  t.live_sum <- 0;
  t.live_total <- 0

(* [float_of_int ns /. 1e9] is the correctly rounded quotient, so a
   whole number of seconds reads back exactly. *)
let snap t =
  { counts = Array.copy t.live; sum = float_of_int t.live_sum /. 1e9; total = t.live_total }

let empty_snap = { counts = Array.make nbuckets 0; sum = 0.0; total = 0 }

let count (s : snap) = s.total
let sum (s : snap) = s.sum

let merge (a : snap) (b : snap) =
  {
    counts = Array.init nbuckets (fun i -> a.counts.(i) + b.counts.(i));
    sum = a.sum +. b.sum;
    total = a.total + b.total;
  }

let mean (s : snap) =
  if s.total = 0 then 0.0 else s.sum /. float_of_int s.total

(* Upper bound of the bucket holding the q-th observation: an
   over-estimate by at most one octave, which is all a log-scale
   histogram can promise. *)
let quantile (s : snap) q =
  if s.total = 0 then 0.0
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = int_of_float (ceil (q *. float_of_int s.total)) in
    let rank = max 1 rank in
    let acc = ref 0 and result = ref (bucket_upper (nbuckets - 1)) in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + s.counts.(i);
         if !acc >= rank then begin
           result := bucket_upper i;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let pp_duration ppf s =
  if s >= 1.0 then Format.fprintf ppf "%.2f s" s
  else if s >= 1e-3 then Format.fprintf ppf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Format.fprintf ppf "%.2f us" (s *. 1e6)
  else Format.fprintf ppf "%.0f ns" (s *. 1e9)
