module Obs = Sanids_obs

type config = { failures : int; cooldown : int; max_cooldown : int }

let default_config = { failures = 3; cooldown = 64; max_cooldown = 4096 }

let validate_config c =
  if c.failures < 1 then Error "breaker: fails must be >= 1"
  else if c.cooldown < 1 then Error "breaker: cooldown must be >= 1"
  else if c.max_cooldown < c.cooldown then
    Error "breaker: max must be >= cooldown"
  else Ok c

let config_spec =
  let key name get set = Spec.field name Spec.int get set in
  Spec.record "breaker" ~check:validate_config default_config
    [
      key "fails" (fun c -> c.failures) (fun failures c -> { c with failures });
      key "cooldown" (fun c -> c.cooldown) (fun cooldown c -> { c with cooldown });
      key "max" (fun c -> c.max_cooldown) (fun max_cooldown c -> { c with max_cooldown });
    ]

let config_to_string = config_spec.Spec.print
let config_of_string = config_spec.Spec.parse

type state = Closed | Open of int | Half_open

(* per-template record; [streak] counts consecutive openings and drives
   the exponential backoff (cooldown * 2^(streak-1), capped) *)
type cell = {
  mutable consec : int;  (* consecutive tripped packets while closed *)
  mutable opened_until : int;  (* packet clock when half-open begins *)
  mutable streak : int;
  mutable phase : [ `Closed | `Open | `Half_open ];
}

type t = {
  cfg : config;
  cells : (string, cell) Hashtbl.t;
  mutable clock : int;  (* analyzed packets seen *)
  mutable openings : int;
  metrics : Obs.Registry.t option;
}

let create ?metrics cfg =
  let cfg =
    match validate_config cfg with Ok c -> c | Error m -> invalid_arg ("Breaker.create: " ^ m)
  in
  { cfg; cells = Hashtbl.create 8; clock = 0; openings = 0; metrics }

let cell t name =
  match Hashtbl.find_opt t.cells name with
  | Some c -> c
  | None ->
      let c = { consec = 0; opened_until = 0; streak = 0; phase = `Closed } in
      Hashtbl.add t.cells name c;
      c

let tick t = t.clock <- t.clock + 1

let backoff cfg streak =
  (* cooldown * 2^(streak-1), saturating at max_cooldown *)
  let rec go acc k =
    if k <= 1 || acc >= cfg.max_cooldown then acc else go (acc * 2) (k - 1)
  in
  min cfg.max_cooldown (go cfg.cooldown streak)

let open_cell t name c =
  c.streak <- c.streak + 1;
  c.phase <- `Open;
  c.consec <- 0;
  c.opened_until <- t.clock + backoff t.cfg c.streak;
  t.openings <- t.openings + 1;
  match t.metrics with
  | Some reg ->
      Obs.Registry.incr
        (Obs.Registry.counter reg
           ~help:"circuit-breaker open transitions per template"
           ~labels:[ ("template", name) ]
           "sanids_breaker_open_total")
  | None -> ()

let admit t name =
  match Hashtbl.find_opt t.cells name with
  | None -> true
  | Some c -> (
      match c.phase with
      | `Closed -> true
      | `Half_open -> true
      | `Open ->
          if t.clock >= c.opened_until then begin
            c.phase <- `Half_open;
            true
          end
          else false)

let record t name ~tripped =
  let c = cell t name in
  match c.phase with
  | `Open -> ()  (* not admitted; a stray report changes nothing *)
  | `Half_open ->
      if tripped then open_cell t name c
      else begin
        c.phase <- `Closed;
        c.consec <- 0;
        c.streak <- 0
      end
  | `Closed ->
      if tripped then begin
        c.consec <- c.consec + 1;
        if c.consec >= t.cfg.failures then open_cell t name c
      end
      else c.consec <- 0

let state t name =
  match Hashtbl.find_opt t.cells name with
  | None -> Closed
  | Some c -> (
      match c.phase with
      | `Closed -> Closed
      | `Half_open -> Half_open
      | `Open ->
          if t.clock >= c.opened_until then Half_open
          else Open (c.opened_until - t.clock))

let open_templates t =
  Hashtbl.fold
    (fun name c acc ->
      if c.phase = `Open && t.clock < c.opened_until then name :: acc else acc)
    t.cells []
  |> List.sort compare

let openings t = t.openings
