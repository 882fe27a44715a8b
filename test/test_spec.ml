(* The one spec grammar behind every tunable: printed specs read back
   exactly, and every codec tokenises the same way. *)

open Sanids_semantic
open Sanids_nids
module Confirm = Sanids_confirm.Confirm
module Ingest_fault = Sanids_ingest.Fault
module Cluster_fault = Sanids_cluster.Fault

(* ------------------------------------------------------------------ *)
(* round trip: of_string (to_string v) = Ok v *)

(* A float in [lo, lo + span]: most draws need all 17 significant
   digits; some are short decimals, some the ends of the range. *)
let float_in rng lo span =
  match Rng.int rng 5 with
  | 0 -> lo
  | 1 -> lo +. span
  | 2 -> lo +. (float_of_int (Rng.int rng 100) /. 100. *. span)
  | _ -> lo +. Rng.float rng span

let int_in rng lo hi = if Rng.int rng 4 = 0 then hi else Rng.int_in rng lo hi
let big = 1 lsl 40

let gen_limits rng =
  let dim () = if Rng.bool rng then max_int else int_in rng 1 big in
  {
    Budget.max_bytes = dim ();
    max_insns = dim ();
    max_match_steps = dim ();
    deadline = (if Rng.int rng 3 = 0 then 0.0 else float_in rng 0.0 10.0);
  }

let gen_breaker rng =
  let cooldown = int_in rng 1 big in
  {
    Breaker.failures = int_in rng 1 big;
    cooldown;
    max_cooldown = (if Rng.bool rng then cooldown else int_in rng cooldown max_int);
  }

let gen_confirm rng =
  {
    Confirm.max_steps = int_in rng 1 10_000_000;
    max_syscalls = int_in rng 1 big;
    min_written = int_in rng 1 big;
    arena_size = int_in rng 8192 (1 lsl 24);
  }

let gen_backoff rng =
  let base = float_in rng 1e-6 10.0 in
  {
    Backoff.base;
    factor = float_in rng 1.0 4.0;
    cap = float_in rng base 100.0;
    jitter = float_in rng 0.0 1.0;
    timeout = float_in rng 1e-3 60.0;
  }

let gen_plan rng kinds =
  List.init (Rng.int rng 7) (fun _ -> (Rng.pick rng kinds, float_in rng 0.0 1.0))

(* [Some printed] when the round trip fails *)
let round_trip print parse v =
  let s = print v in
  if parse s = Ok v then None else Some s

let prop_round_trip =
  QCheck2.Test.make ~name:"of_string (to_string v) = Ok v for all six codecs" ~count:1000
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let failures =
        List.filter_map Fun.id
          [
            round_trip Budget.limits_to_string Budget.limits_of_string (gen_limits rng);
            round_trip Breaker.config_to_string Breaker.config_of_string (gen_breaker rng);
            round_trip Confirm.config_to_string Confirm.config_of_string (gen_confirm rng);
            round_trip Backoff.to_string Backoff.of_string (gen_backoff rng);
            round_trip Ingest_fault.to_string Ingest_fault.of_string
              (gen_plan rng
                 Ingest_fault.[| Truncate; Bit_flip; Duplicate; Reorder; Garbage_prepend |]);
            round_trip Cluster_fault.to_string Cluster_fault.of_string
              (gen_plan rng Cluster_fault.[| Drop; Duplicate; Delay; Reorder; Truncate |]);
          ]
      in
      failures = []
      || QCheck2.Test.fail_reportf "did not read back: %s" (String.concat " | " failures))

let test_printed_forms () =
  Alcotest.(check string) "backoff default" "base=0.05,factor=2,cap=2,jitter=0.5,timeout=5"
    (Backoff.to_string Backoff.default);
  Alcotest.(check string) "budget default" "bytes=262144,insns=200000,steps=400000,deadline=0.25"
    (Budget.limits_to_string Budget.default_limits);
  Alcotest.(check string) "17 digits when 15 do not read back" "dup=0.12345678901234568"
    (Cluster_fault.to_string [ (Cluster_fault.Duplicate, 0.12345678901234568) ]);
  Alcotest.(check string) "empty plan" "" (Ingest_fault.to_string [])

(* ------------------------------------------------------------------ *)
(* one tokenisation rule *)

let ok = Result.is_ok
let err = Result.is_error

(* does each codec accept a spec?  records, then plans *)
let records =
  [
    ("budget", fun s -> ok (Budget.limits_of_string s));
    ("breaker", fun s -> ok (Breaker.config_of_string s));
    ("confirm", fun s -> ok (Confirm.config_of_string s));
    ("backoff", fun s -> ok (Backoff.of_string s));
  ]

let plans =
  [
    ("ingest fault", fun s -> ok (Ingest_fault.of_string s));
    ("cluster fault", fun s -> ok (Cluster_fault.of_string s));
  ]

let test_tokens () =
  let check name accepted spec expect =
    Alcotest.(check bool) (Printf.sprintf "%s %S" name spec) expect (accepted spec)
  in
  let both name accepted a b =
    List.iter
      (fun spec -> check name accepted spec true)
      [ a ^ "," ^ b; " " ^ a ^ " , " ^ b ^ " " ];
    List.iter
      (fun spec -> check name accepted spec false)
      [ a ^ ",," ^ b; a ^ "," ^ b ^ ","; "," ^ a; a ^ ", ," ^ b ]
  in
  List.iter2
    (fun (name, accepted) (a, b) ->
      both name accepted a b;
      check name accepted "" false;
      check name accepted "   " false;
      check name accepted "default" true;
      check name accepted " default " true)
    records
    [ ("bytes=1", "insns=2"); ("fails=1", "cooldown=2"); ("steps=9", "arena=9000");
      ("base=0.1", "cap=1") ];
  List.iter
    (fun (name, accepted) ->
      both name accepted "dup=0.1" "reorder=0.2";
      check name accepted "" true;
      check name accepted "  " true;
      check name accepted "default" false)
    plans;
  Alcotest.(check bool) "empty plan" true
    (Ingest_fault.of_string "" = Ok [] && Cluster_fault.of_string " " = Ok []);
  Alcotest.(check bool) "key and value trimmed" true
    (Breaker.config_of_string " fails = 5 ,max= 99 "
    = Ok { Breaker.default_config with Breaker.failures = 5; max_cooldown = 99 });
  Alcotest.(check bool) "unlimited word" true
    (Budget.limits_of_string " unlimited " = Ok Budget.unlimited
    && err (Breaker.config_of_string "unlimited"))

let error_of = function Ok _ -> "accepted" | Error m -> m

let test_error_wording () =
  List.iter
    (fun (want, got) -> Alcotest.(check string) want want got)
    [
      ( {|budget: bytes wants a positive integer, got "never"|},
        error_of (Budget.limits_of_string "bytes=never") );
      ({|breaker: fails wants an integer, got "x"|}, error_of (Breaker.config_of_string "fails=x"));
      ( {|fault: unknown kind "meteor" (want truncate|bitflip|dup|reorder|garbage)|},
        error_of (Ingest_fault.of_string "meteor=0.5") );
      ( {|fault: drop wants a probability in [0,1], got "2.0"|},
        error_of (Cluster_fault.of_string "drop=2.0") );
      ( {|backoff: unknown key "bogus" (want base|factor|cap|jitter|timeout)|},
        error_of (Backoff.of_string "bogus=1") );
      ({|confirm: "steps" is not key=value|}, error_of (Confirm.config_of_string "steps"));
      ({|confirm: empty spec|}, error_of (Confirm.config_of_string " "));
      ( {|budget: empty token in "bytes=1,,insns=2"|},
        error_of (Budget.limits_of_string "bytes=1,,insns=2") );
      ( {|config: classify wants a boolean (true/false), got "maybe"|},
        error_of (Config.of_spec "classify=maybe") );
      ( {|budget: deadline wants seconds >= 0, got "-1"|},
        error_of (Config.of_spec "budget = deadline=-1") );
    ]

let test_config_assignment () =
  let apply s = Result.map (fun f -> f Config.default) (Config.of_spec s) in
  (match apply "  budget = bytes=1, insns=2 " with
  | Ok c ->
      Alcotest.(check bool) "nested spec, spaces trimmed" true
        (c.Config.analysis_budget
        = Some { Budget.default_limits with Budget.max_bytes = 1; max_insns = 2 })
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "empty assignment" true (err (Config.of_spec ""));
  Alcotest.(check (list string)) "keys"
    [
      "honeypot"; "unused"; "scan_threshold"; "classify"; "extract"; "min_payload";
      "reassemble"; "verdict_cache"; "flow_alert_cache"; "queue"; "drop_policy"; "budget";
      "breaker"; "degrade"; "confirm"; "static_refute";
    ]
    Config.spec_keys;
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " is a key") true
        (match Config.of_spec (k ^ "=") with
        | Error m -> not (String.starts_with ~prefix:"config: unknown key" m)
        | Ok _ -> true))
    Config.spec_keys

let () =
  Alcotest.run "spec"
    [
      ( "round trip",
        [
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "printed forms" `Quick test_printed_forms;
        ] );
      ( "grammar",
        [
          Alcotest.test_case "tokens" `Quick test_tokens;
          Alcotest.test_case "error wording" `Quick test_error_wording;
          Alcotest.test_case "config assignment" `Quick test_config_assignment;
        ] );
    ]
