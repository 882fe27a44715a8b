(* The adversarial-load hardening contract: exact budget fuel
   accounting, circuit-breaker transitions, watchdog restart
   accounting, and the pipeline-level property that any adversarial
   payload under a tight budget terminates in bounds, never raises,
   and is answered by the degraded pass. *)

open Sanids_semantic
open Sanids_nids
open Sanids_exploits
module Adversarial = Sanids_workload.Adversarial

(* ------------------------------------------------------------------ *)
(* budget fuel accounting *)

let tight = { Budget.max_bytes = 100; max_insns = 50; max_match_steps = 30; deadline = 0. }

let test_take_accounting () =
  let b = Budget.start tight in
  Alcotest.(check bool) "within bytes" true (Budget.take_bytes b 60);
  Alcotest.(check bool) "still within" true (Budget.take_bytes b 40);
  Alcotest.(check int) "bytes spent" 100 (Budget.spent b).Budget.bytes;
  Alcotest.(check bool) "alive at the line" true (Budget.alive b);
  (* the denying take spends nothing *)
  Alcotest.(check bool) "over the line" false (Budget.take_bytes b 1);
  Alcotest.(check int) "denied take spent nothing" 100 (Budget.spent b).Budget.bytes;
  Alcotest.(check bool) "tripped" false (Budget.alive b);
  (match Budget.tripped b with
  | Some Budget.Bytes -> ()
  | r ->
      Alcotest.failf "wrong trip reason: %s"
        (match r with None -> "none" | Some r -> Budget.reason_to_string r));
  match Budget.outcome b with
  | Budget.Truncated Budget.Bytes -> ()
  | o -> Alcotest.failf "wrong outcome: %s" (Budget.outcome_to_string o)

let test_tripped_sticky () =
  let b = Budget.start tight in
  Alcotest.(check bool) "trip on insns" false (Budget.take_insns b 51);
  (* once tripped, every dimension is denied and nothing more is spent *)
  Alcotest.(check bool) "bytes denied after trip" false (Budget.take_bytes b 1);
  Alcotest.(check bool) "steps denied after trip" false (Budget.take_steps b 1);
  let s = Budget.spent b in
  Alcotest.(check int) "no bytes spent" 0 s.Budget.bytes;
  Alcotest.(check int) "no steps spent" 0 s.Budget.steps;
  match Budget.tripped b with
  | Some Budget.Instructions -> ()
  | _ -> Alcotest.fail "first trip reason not preserved"

let test_unlimited_never_trips () =
  let b = Budget.start Budget.unlimited in
  for _ = 1 to 1000 do
    assert (Budget.take_bytes b 4096);
    assert (Budget.take_insns b 4096);
    assert (Budget.take_steps b 4096)
  done;
  Alcotest.(check bool) "alive" true (Budget.alive b);
  Alcotest.(check bool) "complete" true (Budget.outcome b = Budget.Complete)

let test_limits_parse () =
  (match Budget.limits_of_string "default" with
  | Ok l -> Alcotest.(check bool) "default word" true (l = Budget.default_limits)
  | Error e -> Alcotest.fail e);
  (match Budget.limits_of_string "unlimited" with
  | Ok l -> Alcotest.(check bool) "unlimited word" true (l = Budget.unlimited)
  | Error e -> Alcotest.fail e);
  (* round trip through the printed form, the whole record *)
  List.iter
    (fun l ->
      match Budget.limits_of_string (Budget.limits_to_string l) with
      | Ok l' -> Alcotest.(check bool) "round trip" true (l = l')
      | Error e -> Alcotest.failf "round trip rejected: %s" e)
    [ Budget.default_limits; Budget.unlimited; tight ];
  List.iter
    (fun s ->
      match Budget.limits_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "bytes=0"; "insns=-5"; "steps=nope"; "fuel=3"; "deadline=-1" ]

(* random take sequences: spent never exceeds limits, the first trip
   reason is final, and takes after a trip are all denied *)
let prop_spent_within_limits =
  let open QCheck2 in
  Test.make ~name:"budget spent <= limits under random takes" ~count:300
    Gen.(list_size (int_range 1 80) (pair (int_range 0 2) (int_range 0 40)))
    (fun takes ->
      let b = Budget.start { tight with max_bytes = 90; max_insns = 70; max_match_steps = 55 } in
      let tripped_seen = ref false in
      List.iter
        (fun (dim, n) ->
          let granted =
            match dim with
            | 0 -> Budget.take_bytes b n
            | 1 -> Budget.take_insns b n
            | _ -> Budget.take_steps b n
          in
          if !tripped_seen && granted then failwith "take granted after trip";
          if not granted then tripped_seen := true)
        takes;
      let s = Budget.spent b in
      s.Budget.bytes <= 90 && s.Budget.insns <= 70 && s.Budget.steps <= 55
      && Budget.alive b = not !tripped_seen)

(* ------------------------------------------------------------------ *)
(* breaker transitions *)

let bcfg = { Breaker.failures = 2; cooldown = 4; max_cooldown = 8 }

(* one analyzed packet: the template is (maybe) admitted, reports its
   outcome, and the packet clock advances *)
let packet br name ~tripped =
  let admitted = Breaker.admit br name in
  if admitted then Breaker.record br name ~tripped;
  Breaker.tick br;
  admitted

let test_opens_after_consecutive_trips () =
  let br = Breaker.create bcfg in
  Alcotest.(check bool) "first trip admitted" true (packet br "t" ~tripped:true);
  Alcotest.(check bool) "still closed" true (Breaker.state br "t" = Breaker.Closed);
  Alcotest.(check bool) "second trip admitted" true (packet br "t" ~tripped:true);
  (match Breaker.state br "t" with
  (* the tick after the opening packet already spent one cooldown unit *)
  | Breaker.Open n -> Alcotest.(check int) "base cooldown" bcfg.Breaker.cooldown (n + 1)
  | _ -> Alcotest.fail "not open after [failures] consecutive trips");
  Alcotest.(check bool) "excluded while open" false (packet br "t" ~tripped:false);
  Alcotest.(check (list string)) "listed open" [ "t" ] (Breaker.open_templates br);
  Alcotest.(check int) "one opening" 1 (Breaker.openings br)

let test_clean_packet_resets_streak () =
  let br = Breaker.create bcfg in
  ignore (packet br "t" ~tripped:true);
  ignore (packet br "t" ~tripped:false);
  ignore (packet br "t" ~tripped:true);
  Alcotest.(check bool) "still closed" true (Breaker.state br "t" = Breaker.Closed)

let test_half_open_probe_closes () =
  let br = Breaker.create bcfg in
  ignore (packet br "t" ~tripped:true);
  ignore (packet br "t" ~tripped:true);
  (* burn the cooldown on the packet clock *)
  for _ = 1 to bcfg.Breaker.cooldown - 1 do
    Alcotest.(check bool) "cooling" false (packet br "t" ~tripped:false)
  done;
  Alcotest.(check bool) "half-open probe admitted" true (packet br "t" ~tripped:false);
  Alcotest.(check bool) "clean probe closes" true (Breaker.state br "t" = Breaker.Closed);
  Alcotest.(check int) "still one opening" 1 (Breaker.openings br)

let test_retrip_doubles_cooldown_capped () =
  let br = Breaker.create bcfg in
  ignore (packet br "t" ~tripped:true);
  ignore (packet br "t" ~tripped:true);
  for _ = 1 to bcfg.Breaker.cooldown - 1 do
    ignore (packet br "t" ~tripped:false)
  done;
  (* tripped probe reopens with doubled cooldown *)
  ignore (packet br "t" ~tripped:true);
  (match Breaker.state br "t" with
  | Breaker.Open n -> Alcotest.(check int) "doubled" (2 * bcfg.Breaker.cooldown) (n + 1)
  | _ -> Alcotest.fail "tripped probe did not reopen");
  for _ = 1 to (2 * bcfg.Breaker.cooldown) - 1 do
    ignore (packet br "t" ~tripped:false)
  done;
  ignore (packet br "t" ~tripped:true);
  (* third streak would be 16 packets unbacked off; the cap holds it *)
  (match Breaker.state br "t" with
  | Breaker.Open n -> Alcotest.(check int) "capped" bcfg.Breaker.max_cooldown (n + 1)
  | _ -> Alcotest.fail "third streak did not reopen");
  Alcotest.(check int) "three openings" 3 (Breaker.openings br)

let test_breakers_independent () =
  let br = Breaker.create bcfg in
  ignore (packet br "a" ~tripped:true);
  ignore (packet br "a" ~tripped:true);
  Alcotest.(check bool) "a open" false (Breaker.admit br "a");
  Alcotest.(check bool) "b unaffected" true (Breaker.admit br "b")

let test_breaker_config_parse () =
  (match Breaker.config_of_string "fails=5,max=9999" with
  | Ok c ->
      Alcotest.(check int) "fails" 5 c.Breaker.failures;
      Alcotest.(check int) "default cooldown kept" Breaker.default_config.Breaker.cooldown
        c.Breaker.cooldown
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Breaker.config_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "fails=0"; "cooldown=2,max=1"; "volts=3"; "fails=many" ]

(* ------------------------------------------------------------------ *)
(* watchdog restart accounting *)

let wcfg = { Watchdog.stall_after = 0.1; max_restarts = 2; backoff = 2.0 }

let test_watchdog_sequence () =
  let wd = Watchdog.create wcfg in
  Alcotest.(check bool) "idle is steady" true
    (Watchdog.observe wd ~now:10.0 ~busy_since:None = Watchdog.Steady);
  Alcotest.(check bool) "short busy is steady" true
    (Watchdog.observe wd ~now:10.0 ~busy_since:(Some 9.95) = Watchdog.Steady);
  Alcotest.(check bool) "stall restarts" true
    (Watchdog.observe wd ~now:10.0 ~busy_since:(Some 9.8) = Watchdog.Restart);
  Alcotest.(check int) "one restart" 1 (Watchdog.restarts wd);
  (* the abandoned generation's heartbeat predates the restart *)
  Alcotest.(check bool) "old generation reads steady" true
    (Watchdog.observe wd ~now:11.0 ~busy_since:(Some 9.8) = Watchdog.Steady);
  (* backoff: the replacement gets twice the patience *)
  Alcotest.(check (float 1e-9)) "threshold doubled" 0.2 (Watchdog.threshold wd);
  Alcotest.(check bool) "under doubled threshold" true
    (Watchdog.observe wd ~now:10.55 ~busy_since:(Some 10.4) = Watchdog.Steady);
  Alcotest.(check bool) "second stall restarts" true
    (Watchdog.observe wd ~now:10.7 ~busy_since:(Some 10.4) = Watchdog.Restart);
  Alcotest.(check int) "two restarts" 2 (Watchdog.restarts wd);
  (* cap reached: a further stall exhausts instead of respawn-looping *)
  Alcotest.(check bool) "cap exhausts" true
    (Watchdog.observe wd ~now:12.0 ~busy_since:(Some 11.0) = Watchdog.Exhausted);
  Alcotest.(check int) "restarts unchanged" 2 (Watchdog.restarts wd)

let test_watchdog_config_for () =
  let c = Watchdog.config_for ~deadline:0.5 in
  Alcotest.(check (float 1e-9)) "8x deadline" 4.0 c.Watchdog.stall_after;
  let c = Watchdog.config_for ~deadline:0.001 in
  Alcotest.(check (float 1e-9)) "floored" 0.05 c.Watchdog.stall_after;
  match Watchdog.validate_config { wcfg with Watchdog.max_restarts = -1 } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative restart cap accepted"

(* ------------------------------------------------------------------ *)
(* the pipeline under adversarial load *)

let tight_budget =
  { Budget.max_bytes = 8192; max_insns = 300; max_match_steps = 3000; deadline = 0. }

let hardened_config =
  Config.default
  |> Config.with_budget (Some tight_budget)
  |> Config.with_breaker (Some bcfg)
  |> Config.with_degrade true

let uniq_names vs =
  List.sort_uniq compare (List.map (fun v -> v.Pipeline.match_.Matcher.template) vs)

(* any adversarial payload, tight budget: analysis terminates, never
   raises, verdicts stay deduplicated, and a truncated analysis is
   answered by the degraded pass *)
let prop_adversarial_in_budget =
  let open QCheck2 in
  let gen_kind = Gen.oneofl Adversarial.kinds in
  Test.make ~name:"adversarial payloads stay in budget, never raise" ~count:60
    Gen.(triple gen_kind int64 (int_range 64 8192))
    (fun (kind, seed, size) ->
      let nids = Pipeline.create hardened_config in
      let payload = Adversarial.payload ~kind ~size (Sanids_util.Rng.create seed) in
      let r = Pipeline.analyze_report nids payload in
      let names = List.map (fun v -> v.Pipeline.match_.Matcher.template) r.Pipeline.verdicts in
      List.length names = List.length (List.sort_uniq compare names)
      && (match r.Pipeline.outcome with
         | Budget.Complete -> true
         | Budget.Truncated _ -> r.Pipeline.degraded)
      && List.for_all
           (fun (v : Pipeline.verdict) ->
             (not v.Pipeline.degraded) || v.Pipeline.match_.Matcher.offsets = [])
           r.Pipeline.verdicts)

(* with the budget unlimited and the breaker quiet, the hardened
   pipeline's verdicts are exactly the plain pipeline's *)
let test_unlimited_budget_equivalence () =
  let rng = Sanids_util.Rng.create 0xB4D6E7L in
  let payloads =
    [
      (Shellcodes.find "classic").Shellcodes.code;
      Exploit_gen.http_exploit rng ~shellcode:(Shellcodes.find "classic").Shellcodes.code;
      Adversarial.payload ~kind:Adversarial.Jmp_maze ~size:512 rng;
      Adversarial.payload ~kind:Adversarial.Unicode_bomb ~size:512 rng;
      "GET /index.html HTTP/1.0\r\n\r\n";
    ]
  in
  let plain = Pipeline.create Config.default in
  let hard =
    Pipeline.create
      (Config.default
      |> Config.with_budget (Some Budget.unlimited)
      |> Config.with_breaker (Some Breaker.default_config)
      |> Config.with_degrade true)
  in
  List.iteri
    (fun i p ->
      let r = Pipeline.analyze_report hard p in
      Alcotest.(check bool)
        (Printf.sprintf "payload %d complete" i)
        true
        (r.Pipeline.outcome = Budget.Complete && not r.Pipeline.degraded);
      Alcotest.(check (list string))
        (Printf.sprintf "payload %d same verdicts" i)
        (uniq_names (Pipeline.analyze_report plain p).Pipeline.verdicts)
        (uniq_names r.Pipeline.verdicts))
    payloads

(* a real exploit clears the production-shaped default budget *)
let test_default_budget_passes_exploit () =
  let nids =
    Pipeline.create
      (Config.default |> Config.with_budget (Some Budget.default_limits))
  in
  let rng = Sanids_util.Rng.create 0x5EEDL in
  let payload =
    Exploit_gen.http_exploit rng ~shellcode:(Shellcodes.find "classic").Shellcodes.code
  in
  let r = Pipeline.analyze_report nids payload in
  Alcotest.(check bool) "complete" true (r.Pipeline.outcome = Budget.Complete);
  Alcotest.(check bool) "shell-spawn found" true
    (List.mem "shell-spawn" (uniq_names r.Pipeline.verdicts))

(* the stats projection counts what the analyses reported *)
let test_truncation_counted () =
  let nids = Pipeline.create hardened_config in
  let rng = Sanids_util.Rng.create 0xADA7L in
  let truncated = ref 0 and degraded = ref 0 in
  for _ = 1 to 20 do
    let p = Adversarial.payload ~kind:Adversarial.Jmp_maze ~size:4096 rng in
    let r = Pipeline.analyze_report nids p in
    (match r.Pipeline.outcome with Budget.Truncated _ -> incr truncated | _ -> ());
    if r.Pipeline.degraded then incr degraded
  done;
  Alcotest.(check bool) "jmp maze trips the budget" true (!truncated > 0);
  let st = Pipeline.stats nids in
  Alcotest.(check int) "truncated counted" !truncated st.Stats.budget_truncated;
  Alcotest.(check int) "degraded counted" !degraded st.Stats.degraded

(* truncated and degraded analyses must never poison the verdict cache:
   re-analyzing the same payload re-runs the full analysis *)
let test_no_cache_poisoning () =
  let nids = Pipeline.create hardened_config in
  let p =
    Adversarial.payload ~kind:Adversarial.Jmp_maze ~size:4096
      (Sanids_util.Rng.create 0xCAFEL)
  in
  let r1 = Pipeline.analyze_report nids p in
  let r2 = Pipeline.analyze_report nids p in
  Alcotest.(check bool) "truncated" true (r1.Pipeline.outcome <> Budget.Complete);
  Alcotest.(check bool) "not served from cache" true
    (List.for_all (fun v -> not v.Pipeline.cached) r2.Pipeline.verdicts);
  Alcotest.(check bool) "same outcome on re-analysis" true
    (r1.Pipeline.outcome = r2.Pipeline.outcome)

(* the degraded pass reports a template at the leftmost occurrence of
   its earliest data literal, over repeated and overlapping literals *)
let test_degraded_entries () =
  let base = List.hd Template_lib.shell_spawn in
  let tpl name data = { base with Template.name; data } in
  let templates =
    [
      tpl "abc" [ "ABC" ];
      tpl "bcd-abc" [ "BCD"; "ABC" ];
      tpl "cab" [ "CAB" ];
      tpl "cdx" [ "CDx"; "xAB" ];
      tpl "absent" [ "ABC"; "ZZZ" ];
    ]
  in
  let nids =
    Pipeline.create
      (Config.default
      |> Config.with_extraction false
      |> Config.with_templates templates
      |> Config.with_budget (Some { tight_budget with Budget.max_bytes = 1 })
      |> Config.with_degrade true)
  in
  (*           0123456789012345678 *)
  let buffer = "yyABCABxABCDxABCDyy" in
  let r = Pipeline.analyze_report nids buffer in
  Alcotest.(check bool) "truncated" true (r.Pipeline.outcome <> Budget.Complete);
  Alcotest.(check (list (pair string int)))
    "degraded entries"
    [ ("abc", 2); ("bcd-abc", 2); ("cab", 4); ("cdx", 7) ]
    (List.map
       (fun (v : Pipeline.verdict) ->
         Alcotest.(check bool) "degraded" true v.Pipeline.degraded;
         (v.Pipeline.match_.Matcher.template, v.Pipeline.match_.Matcher.entry))
       r.Pipeline.verdicts)

let test_degrade_requires_mechanism () =
  match Config.validate (Config.default |> Config.with_degrade true) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "degrade with no budget or breaker accepted"

let () =
  Alcotest.run "budget"
    [
      ( "budget",
        [
          Alcotest.test_case "take accounting" `Quick test_take_accounting;
          Alcotest.test_case "tripped is sticky" `Quick test_tripped_sticky;
          Alcotest.test_case "unlimited never trips" `Quick test_unlimited_never_trips;
          Alcotest.test_case "limits parse" `Quick test_limits_parse;
          QCheck_alcotest.to_alcotest prop_spent_within_limits;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "opens after consecutive trips" `Quick
            test_opens_after_consecutive_trips;
          Alcotest.test_case "clean packet resets streak" `Quick
            test_clean_packet_resets_streak;
          Alcotest.test_case "half-open probe closes" `Quick test_half_open_probe_closes;
          Alcotest.test_case "re-trip doubles cooldown, capped" `Quick
            test_retrip_doubles_cooldown_capped;
          Alcotest.test_case "breakers are independent" `Quick test_breakers_independent;
          Alcotest.test_case "config parse" `Quick test_breaker_config_parse;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "observe sequence" `Quick test_watchdog_sequence;
          Alcotest.test_case "config_for" `Quick test_watchdog_config_for;
        ] );
      ( "pipeline",
        [
          QCheck_alcotest.to_alcotest prop_adversarial_in_budget;
          Alcotest.test_case "unlimited budget is equivalence" `Quick
            test_unlimited_budget_equivalence;
          Alcotest.test_case "default budget passes a real exploit" `Quick
            test_default_budget_passes_exploit;
          Alcotest.test_case "truncation and degradation counted" `Quick
            test_truncation_counted;
          Alcotest.test_case "no cache poisoning" `Quick test_no_cache_poisoning;
          Alcotest.test_case "degraded entries are leftmost" `Quick
            test_degraded_entries;
          Alcotest.test_case "degrade requires a mechanism" `Quick
            test_degrade_requires_mechanism;
        ] );
    ]
