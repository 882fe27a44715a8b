type reason = Bytes | Instructions | Match_steps | Deadline

let reason_to_string = function
  | Bytes -> "bytes"
  | Instructions -> "instructions"
  | Match_steps -> "match_steps"
  | Deadline -> "deadline"

type outcome = Complete | Truncated of reason

let outcome_to_string = function
  | Complete -> "complete"
  | Truncated r -> "truncated:" ^ reason_to_string r

let pp_outcome ppf o = Format.pp_print_string ppf (outcome_to_string o)

type limits = {
  max_bytes : int;
  max_insns : int;
  max_match_steps : int;
  deadline : float;
}

let unlimited =
  { max_bytes = max_int; max_insns = max_int; max_match_steps = max_int; deadline = 0.0 }

let default_limits =
  { max_bytes = 262_144; max_insns = 200_000; max_match_steps = 400_000; deadline = 0.25 }

let validate_limits l =
  if l.max_bytes <= 0 then Error "budget: bytes must be positive"
  else if l.max_insns <= 0 then Error "budget: insns must be positive"
  else if l.max_match_steps <= 0 then Error "budget: steps must be positive"
  else if l.deadline < 0.0 then Error "budget: deadline must be >= 0"
  else Ok l

let limits_to_string l =
  let dim name v = if v = max_int then [] else [ Printf.sprintf "%s=%d" name v ] in
  let parts =
    dim "bytes" l.max_bytes @ dim "insns" l.max_insns @ dim "steps" l.max_match_steps
    @ (if l.deadline > 0.0 then [ Printf.sprintf "deadline=%g" l.deadline ] else [])
  in
  if parts = [] then "unlimited" else String.concat "," parts

let limits_of_string s =
  let s = String.trim s in
  if s = "default" then Ok default_limits
  else if s = "unlimited" then Ok unlimited
  else begin
    let parse_field acc kv =
      match acc with
      | Error _ -> acc
      | Ok l -> (
          match String.index_opt kv '=' with
          | None -> Error (Printf.sprintf "budget: %S is not key=value" kv)
          | Some i -> (
              let k = String.sub kv 0 i in
              let v = String.sub kv (i + 1) (String.length kv - i - 1) in
              let int_field set =
                match int_of_string_opt v with
                | Some n when n > 0 -> Ok (set n)
                | Some _ | None ->
                    Error (Printf.sprintf "budget: %s wants a positive integer, got %S" k v)
              in
              match k with
              | "bytes" -> int_field (fun n -> { l with max_bytes = n })
              | "insns" -> int_field (fun n -> { l with max_insns = n })
              | "steps" -> int_field (fun n -> { l with max_match_steps = n })
              | "deadline" -> (
                  match float_of_string_opt v with
                  | Some f when f >= 0.0 -> Ok { l with deadline = f }
                  | Some _ | None ->
                      Error (Printf.sprintf "budget: deadline wants seconds >= 0, got %S" v))
              | _ ->
                  Error
                    (Printf.sprintf
                       "budget: unknown key %S (want bytes|insns|steps|deadline)" k)))
    in
    List.fold_left parse_field (Ok default_limits) (String.split_on_char ',' s)
  end

type spent = { bytes : int; insns : int; steps : int }

type t = {
  limits : limits;
  mutable b : int;
  mutable i : int;
  mutable s : int;
  mutable tripped : reason option;
  t0 : float;  (* deadline clock start *)
  mutable ticks : int;  (* takes since the last clock poll *)
}

(* How many takes between wall-clock polls: large enough to keep
   gettimeofday off the per-instruction path, small enough that a
   deadline overrun is caught within microseconds of real work. *)
let clock_stride = 256

let start limits =
  {
    limits;
    b = 0;
    i = 0;
    s = 0;
    tripped = None;
    t0 = (if limits.deadline > 0.0 then Unix.gettimeofday () else 0.0);
    ticks = 0;
  }

let spent t = { bytes = t.b; insns = t.i; steps = t.s }
let tripped t = t.tripped

let check_deadline t =
  if t.limits.deadline > 0.0 && t.tripped = None then begin
    t.ticks <- t.ticks + 1;
    if t.ticks >= clock_stride then begin
      t.ticks <- 0;
      if Unix.gettimeofday () -. t.t0 > t.limits.deadline then
        t.tripped <- Some Deadline
    end
  end

(* May [n] more units of a dimension currently at [current] be spent?
   Fuel is taken once per decoded instruction and matcher step attempt,
   so the callers store the new level themselves instead of passing a
   store closure: spending fuel allocates nothing. *)
let grant t reason current limit n =
  match t.tripped with
  | Some _ -> false
  | None -> (
      check_deadline t;
      match t.tripped with
      | Some _ -> false
      | None ->
          if n >= 0 && current > limit - n then begin
            t.tripped <- Some reason;
            false
          end
          else true)

let take_bytes t n =
  grant t Bytes t.b t.limits.max_bytes n
  && begin
       if n > 0 then t.b <- t.b + n;
       true
     end

let take_insns t n =
  grant t Instructions t.i t.limits.max_insns n
  && begin
       if n > 0 then t.i <- t.i + n;
       true
     end

let take_steps t n =
  grant t Match_steps t.s t.limits.max_match_steps n
  && begin
       if n > 0 then t.s <- t.s + n;
       true
     end

let alive t =
  (match t.tripped with
  | None ->
      (* poll the clock even when no fuel is being taken, so a stage that
         spins without spending (e.g. a long prefilter) still expires *)
      check_deadline t
  | Some _ -> ());
  t.tripped = None

let outcome t = match t.tripped with None -> Complete | Some r -> Truncated r
