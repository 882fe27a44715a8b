(* Capped exponential backoff with deterministic jitter.

   The jitter stream is splitmix64 keyed by (seed, attempt) — the same
   generator as everything else stochastic in the tree — so a retry
   schedule is a pure function of the policy and the seed.  Jitter
   subtracts (up to [jitter] of the capped delay) rather than adds:
   the deterministic schedule is the worst case, and a fleet of
   sensors seeded differently fans out instead of thundering back in
   lockstep. *)

type t = {
  base : float;
  factor : float;
  cap : float;
  jitter : float;
  timeout : float;
}

let default =
  { base = 0.05; factor = 2.0; cap = 2.0; jitter = 0.5; timeout = 5.0 }

let validate t =
  if not (Float.is_finite t.base) || t.base <= 0.0 then
    Error "backoff: base must be positive"
  else if not (Float.is_finite t.factor) || t.factor < 1.0 then
    Error "backoff: factor must be >= 1"
  else if not (Float.is_finite t.cap) || t.cap < t.base then
    Error "backoff: cap must be >= base"
  else if not (Float.is_finite t.jitter) || t.jitter < 0.0 || t.jitter > 1.0
  then Error "backoff: jitter must be in [0,1]"
  else if not (Float.is_finite t.timeout) || t.timeout <= 0.0 then
    Error "backoff: timeout must be positive"
  else Ok t

(* ------------------------------------------------------------------ *)
(* Spec grammar: comma-separated key=float over [default], same shape
   as the budget/breaker/fault specs so the CLI reads uniformly. *)

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let to_string t =
  Printf.sprintf "base=%s,factor=%s,cap=%s,jitter=%s,timeout=%s"
    (float_str t.base) (float_str t.factor) (float_str t.cap)
    (float_str t.jitter) (float_str t.timeout)

let of_string s =
  let parse acc token =
    match acc with
    | Error _ as e -> e
    | Ok t -> (
        match String.index_opt token '=' with
        | None ->
            Error (Printf.sprintf "backoff: expected key=value, got %S" token)
        | Some i -> (
            let key = String.sub token 0 i in
            let value = String.sub token (i + 1) (String.length token - i - 1) in
            match float_of_string_opt value with
            | None ->
                Error (Printf.sprintf "backoff: bad number %S for %s" value key)
            | Some v -> (
                match key with
                | "base" -> Ok { t with base = v }
                | "factor" -> Ok { t with factor = v }
                | "cap" -> Ok { t with cap = v }
                | "jitter" -> Ok { t with jitter = v }
                | "timeout" -> Ok { t with timeout = v }
                | _ -> Error (Printf.sprintf "backoff: unknown key %S" key))))
  in
  let tokens =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  match List.fold_left parse (Ok default) tokens with
  | Error _ as e -> e
  | Ok t -> validate t

(* ------------------------------------------------------------------ *)

let delay t ~seed ~attempt =
  let attempt = max 0 attempt in
  (* grow multiplicatively but stop once past the cap: [factor^attempt]
     overflows to infinity long before attempt counts grow large, and
     the min against [cap] makes that harmless anyway *)
  let rec grow d n = if n <= 0 || d >= t.cap then d else grow (d *. t.factor) (n - 1) in
  let capped = Float.min t.cap (grow t.base attempt) in
  if t.jitter <= 0.0 then capped
  else
    let rng =
      Rng.create Int64.(add (mul seed 0x9E3779B97F4A7C15L) (of_int attempt))
    in
    let shave = t.jitter *. Rng.float rng 1.0 in
    capped *. (1.0 -. shave)

let retry ?(sleep = Unix.sleepf) ?(clock = Unix.gettimeofday) t ~seed
    ~deadline f =
  let rec go attempt =
    match f ~attempt with
    | Ok _ as ok -> ok
    | Error _ as e ->
        let d = delay t ~seed ~attempt in
        if clock () +. d >= deadline then e
        else begin
          sleep d;
          go (attempt + 1)
        end
  in
  go 0
