(* Log-scale latency histogram: bucket [i] counts observations whose
   duration in nanoseconds has [i] significant bits, i.e. falls in
   [2^(i-1), 2^i) ns.  64 buckets cover sub-nanosecond to ~584 years, so
   a fixed array suffices and merging is bucket-wise addition. *)

let nbuckets = 64

type t = {
  live : int array;
  mutable live_sum : float;  (* seconds *)
  mutable live_total : int;
}

type snap = { counts : int array; sum : float; total : int }

let create () = { live = Array.make nbuckets 0; live_sum = 0.0; live_total = 0 }

let bucket_of_seconds s =
  let ns = s *. 1e9 in
  if ns <= 1.0 || Float.is_nan ns then 0
  else
    (* frexp: ns = m * 2^e with 0.5 <= m < 1, so e is the bit count *)
    let _, e = Float.frexp ns in
    min (nbuckets - 1) (max 0 e)

let bucket_upper i = Float.ldexp 1.0 i /. 1e9
(* seconds; upper bound (exclusive) of bucket [i] *)

let observe t s =
  let s = if Float.is_nan s || s < 0.0 then 0.0 else s in
  let i = bucket_of_seconds s in
  t.live.(i) <- t.live.(i) + 1;
  t.live_sum <- t.live_sum +. s;
  t.live_total <- t.live_total + 1

let reset t =
  Array.fill t.live 0 nbuckets 0;
  t.live_sum <- 0.0;
  t.live_total <- 0

let snap t =
  { counts = Array.copy t.live; sum = t.live_sum; total = t.live_total }

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
