(* The dynamic-confirmation stage: outcome classification on real
   polymorphic decoders versus decoys, syscall register checking, config
   plumbing and lint, pipeline demotion/promotion with cache admission,
   and the emu-test vector harness. *)

open Sanids_net
open Sanids_nids
module Confirm = Sanids_confirm.Confirm
module Emu_test = Sanids_confirm.Emu_test
module Emulator = Sanids_x86.Emulator
module Admmutate = Sanids_polymorph.Admmutate
module Clet = Sanids_polymorph.Clet
module Shellcodes = Sanids_exploits.Shellcodes
module Adversarial = Sanids_workload.Adversarial
module Benign_gen = Sanids_workload.Benign_gen

let shellcode = (Shellcodes.find "classic").Shellcodes.code

let outcome = Alcotest.testable Confirm.pp (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* outcome classification on generated corpora *)

let check_decrypts name code =
  match Confirm.run ~code ~entry:0 () with
  | Confirm.Confirmed_decrypt { written; steps } ->
      Alcotest.(check bool)
        (name ^ ": enough distinct writes")
        true
        (written >= Confirm.default_config.Confirm.min_written);
      Alcotest.(check bool) (name ^ ": took steps") true (steps > 0)
  | o -> Alcotest.failf "%s: expected Confirmed_decrypt, got %a" name Confirm.pp o

let test_admmutate_confirms () =
  List.iter
    (fun seed ->
      let g = Admmutate.generate (Rng.create seed) ~payload:shellcode in
      check_decrypts (Printf.sprintf "admmutate seed %Ld" seed) g.Admmutate.code)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let test_admmutate_staged_confirms () =
  List.iter
    (fun seed ->
      let g = Admmutate.generate_staged (Rng.create seed) ~payload:shellcode in
      check_decrypts (Printf.sprintf "staged seed %Ld" seed) g.Admmutate.code)
    [ 1L; 2L; 3L ]

let test_clet_confirms () =
  List.iter
    (fun seed ->
      let g = Clet.generate (Rng.create seed) ~payload:shellcode in
      check_decrypts (Printf.sprintf "clet seed %Ld" seed) g.Clet.code)
    [ 1L; 2L; 3L; 4L; 5L ]

let test_shellcodes_confirm () =
  List.iter
    (fun (e : Shellcodes.entry) ->
      let o = Confirm.run ~code:e.Shellcodes.code ~entry:0 () in
      Alcotest.(check bool)
        (e.Shellcodes.name ^ " confirms")
        true (Confirm.confirmed o))
    Shellcodes.all

let test_benign_never_confirms () =
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let code = Benign_gen.payload rng in
      let o = Confirm.run ~code ~entry:0 () in
      Alcotest.(check bool)
        (Printf.sprintf "benign seed %Ld does not confirm" seed)
        false (Confirm.confirmed o))
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L; 9L; 10L ]

let test_decoy_refuted () =
  List.iter
    (fun seed ->
      let code =
        Adversarial.payload ~kind:Adversarial.Decoy_decoder ~size:2048
          (Rng.create seed)
      in
      match Confirm.run ~code ~entry:0 () with
      | Confirm.Refuted _ -> ()
      | o -> Alcotest.failf "decoy seed %Ld: expected Refuted, got %a" seed Confirm.pp o)
    [ 1L; 2L; 3L; 4L; 5L ]

(* ------------------------------------------------------------------ *)
(* syscall classification details *)

let test_execve_register_check () =
  (* mov eax, 11; int 0x80 *)
  let code = "\xb8\x0b\x00\x00\x00\xcd\x80" in
  match Confirm.run ~code ~entry:0 () with
  | Confirm.Confirmed_syscall { nr = 11; name = "execve"; _ } -> ()
  | o -> Alcotest.failf "expected execve confirmation, got %a" Confirm.pp o

let test_socketcall_register_check () =
  (* mov eax, 102; mov ebx, 1; int 0x80 — socket(2) via socketcall *)
  let code = "\xb8\x66\x00\x00\x00\xbb\x01\x00\x00\x00\xcd\x80" in
  (match Confirm.run ~code ~entry:0 () with
  | Confirm.Confirmed_syscall { nr = 102; _ } -> ()
  | o -> Alcotest.failf "expected socketcall confirmation, got %a" Confirm.pp o);
  (* same vector with an invalid subcall in ebx must not confirm *)
  let bad = "\xb8\x66\x00\x00\x00\x31\xdb\xcd\x80" in
  Alcotest.(check bool)
    "socketcall with ebx=0 does not confirm" false
    (Confirm.confirmed (Confirm.run ~code:bad ~entry:0 ()))

let test_non_linux_interrupt_refutes () =
  (* int 0x81 is not a Linux syscall gate *)
  match Confirm.run ~code:"\xcd\x81" ~entry:0 () with
  | Confirm.Refuted _ -> ()
  | o -> Alcotest.failf "expected Refuted, got %a" Confirm.pp o

let test_fault_refutes () =
  (* hlt is outside the modelled subset: the run halts and is refuted *)
  match Confirm.run ~code:"\xf4" ~entry:0 () with
  | Confirm.Refuted _ -> ()
  | o -> Alcotest.failf "expected Refuted, got %a" Confirm.pp o

let test_budget_inconclusive () =
  (* jmp self runs forever: the step budget must end it *)
  let config = { Confirm.default_config with Confirm.max_steps = 50 } in
  Alcotest.check outcome "budget exhausted"
    (Confirm.Inconclusive Confirm.Budget)
    (Confirm.run ~config ~code:"\xeb\xfe" ~entry:0 ())

let test_seed_failures_inconclusive () =
  (match Confirm.run ~code:"\x90" ~entry:7 () with
  | Confirm.Inconclusive (Confirm.Fault _) -> ()
  | o -> Alcotest.failf "entry past code: got %a" Confirm.pp o);
  (match Confirm.run ~code:"\x90" ~entry:(-1) () with
  | Confirm.Inconclusive (Confirm.Fault _) -> ()
  | o -> Alcotest.failf "negative entry: got %a" Confirm.pp o);
  let config = { Confirm.default_config with Confirm.arena_size = 8192 } in
  match Confirm.run ~config ~code:(String.make 8192 '\x90') ~entry:0 () with
  | Confirm.Inconclusive (Confirm.Fault _) -> ()
  | o -> Alcotest.failf "code larger than arena: got %a" Confirm.pp o

let test_determinism () =
  let g = Admmutate.generate (Rng.create 99L) ~payload:shellcode in
  let run () = Confirm.run ~code:g.Admmutate.code ~entry:0 () in
  Alcotest.check outcome "same image, same outcome" (run ()) (run ())

(* ------------------------------------------------------------------ *)
(* config spec plumbing and lint *)

let test_config_spec_roundtrip () =
  (match Confirm.config_of_string "default" with
  | Ok c -> Alcotest.(check bool) "default spec" true (c = Confirm.default_config)
  | Error e -> Alcotest.fail e);
  let c =
    { Confirm.max_steps = 100; max_syscalls = 2; min_written = 4;
      arena_size = 8192 }
  in
  (match Confirm.config_of_string (Confirm.config_to_string c) with
  | Ok c' -> Alcotest.(check bool) "roundtrip" true (c = c')
  | Error e -> Alcotest.fail e);
  List.iter
    (fun spec ->
      match Confirm.config_of_string spec with
      | Ok _ -> Alcotest.failf "spec %S should not parse" spec
      | Error _ -> ())
    [ ""; "steps=0"; "steps=abc"; "bogus=1"; "arena=64" ]

let test_config_lint_codes () =
  let codes cfg =
    List.map (fun (f : Sanids_staticlint.Finding.t) -> f.Sanids_staticlint.Finding.code)
      (Config.lint cfg)
  in
  let with_confirm c = Config.with_confirm (Some c) Config.default in
  Alcotest.(check bool) "valid confirm config lints clean" false
    (List.mem "SL207" (codes (with_confirm Confirm.default_config)));
  Alcotest.(check bool) "invalid step budget raises SL207" true
    (List.mem "SL207"
       (codes (with_confirm { Confirm.default_config with Confirm.max_steps = 0 })));
  Alcotest.(check bool) "huge step budget warns SL208" true
    (List.mem "SL208"
       (codes
          (with_confirm { Confirm.default_config with Confirm.max_steps = 2_000_000 })))

let test_config_of_spec () =
  (match Config.of_spec "confirm=default" with
  | Ok f ->
      let cfg = f Config.default in
      Alcotest.(check bool) "confirm enabled" true
        (cfg.Config.confirm = Some Confirm.default_config)
  | Error e -> Alcotest.fail e);
  match Config.of_spec "confirm=steps=0" with
  | Ok _ -> Alcotest.fail "invalid confirm spec should not parse"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* non-raising emulator memory accessors *)

let test_mem_opt_bounds () =
  let emu = Emulator.create ~arena_size:8192 ~code:"\x90" () in
  let base = Emulator.code_base in
  Alcotest.(check (option string)) "read inside" (Some "\x90")
    (Emulator.read_mem_opt emu base 1);
  Alcotest.(check bool) "write inside" true
    (Emulator.write_mem_opt emu (Int32.add base 16l) "\xab" = Some ());
  Alcotest.(check (option string)) "read back" (Some "\xab")
    (Emulator.read_mem_opt emu (Int32.add base 16l) 1);
  Alcotest.(check (option string)) "read below the arena" None
    (Emulator.read_mem_opt emu (Int32.sub base 1l) 1);
  Alcotest.(check (option string)) "read spanning the end" None
    (Emulator.read_mem_opt emu (Int32.add base 8190l) 4);
  Alcotest.(check bool) "write past the end" true
    (Emulator.write_mem_opt emu (Int32.add base 8191l) "xy" = None)

(* ------------------------------------------------------------------ *)
(* the emu-test harness itself *)

let write_temp_vectors content =
  let path = Filename.temp_file "vectors" ".json" in
  let oc = open_out path in
  output_string oc content;
  close_out oc;
  path

let passing_case =
  {|[ { "name": "inc-eax",
       "initial": { "regs": { "eax": 1 }, "mem": [[0, 0x40]] },
       "final":   { "regs": { "eax": 2 }, "eip": 1 } } ]|}

let failing_case =
  {|[ { "name": "wrong-sum",
       "initial": { "regs": { "eax": 1 }, "mem": [[0, 0x40]] },
       "final":   { "regs": { "eax": 3 } } } ]|}

let test_harness_pass_and_fail () =
  let good = write_temp_vectors passing_case in
  let bad = write_temp_vectors failing_case in
  (match Emu_test.run [ good ] with
  | Ok r ->
      Alcotest.(check int) "one case" 1 r.Emu_test.cases;
      Alcotest.(check int) "all passed" 1 (Emu_test.passed r)
  | Error e -> Alcotest.fail e);
  (match Emu_test.run [ good; bad ] with
  | Ok r ->
      Alcotest.(check int) "two files" 2 r.Emu_test.files;
      Alcotest.(check int) "one failure" 1 (List.length r.Emu_test.failures);
      let f = List.hd r.Emu_test.failures in
      Alcotest.(check string) "failing case named" "wrong-sum" f.Emu_test.f_case;
      Alcotest.(check bool) "divergence described" true (f.Emu_test.f_details <> [])
  | Error e -> Alcotest.fail e);
  (match Emu_test.run ~filter:"inc-*" [ good; bad ] with
  | Ok r ->
      Alcotest.(check int) "filter selects one" 1 r.Emu_test.cases;
      Alcotest.(check int) "filtered run passes" 1 (Emu_test.passed r)
  | Error e -> Alcotest.fail e);
  (match Emu_test.run ~jobs:4 [ good; bad ] with
  | Ok r -> Alcotest.(check int) "parallel run agrees" 1 (List.length r.Emu_test.failures)
  | Error e -> Alcotest.fail e);
  Sys.remove good;
  Sys.remove bad

let test_harness_errors () =
  (match Emu_test.run [ "/nonexistent/vectors" ] with
  | Ok _ -> Alcotest.fail "missing path must error"
  | Error _ -> ());
  let mangled = write_temp_vectors "{ not json" in
  (match Emu_test.run [ mangled ] with
  | Ok _ -> Alcotest.fail "mangled file must error"
  | Error _ -> ());
  Sys.remove mangled;
  let not_array = write_temp_vectors {|{"name": "x"}|} in
  (match Emu_test.run [ not_array ] with
  | Ok _ -> Alcotest.fail "non-array top level must error"
  | Error _ -> ());
  Sys.remove not_array;
  (* a float reads as a number but is refused where a vector wants an
     integer, with the loader's own message *)
  let float_steps =
    write_temp_vectors
      {|[ { "name": "x", "steps": 1.5, "initial": {}, "final": {} } ]|}
  in
  (match Emu_test.run [ float_steps ] with
  | Ok _ -> Alcotest.fail "float steps must error"
  | Error e ->
      Alcotest.(check string) "loader error"
        (float_steps ^ {|: field "steps" is not an integer|})
        e);
  Sys.remove float_steps

(* ------------------------------------------------------------------ *)
(* pipeline integration: demotion, promotion, cache admission *)

let ip = Ipaddr.of_string
let attacker = ip "172.16.5.5"
let victim = ip "10.0.0.80"

let base_config = Config.with_classification false Config.default

let confirm_config =
  Config.with_confirm (Some Confirm.default_config) base_config

let payload_packet ?(ts = 1.0) payload =
  Packet.build_tcp ~ts ~src:attacker ~dst:victim ~src_port:4321 ~dst_port:80
    payload

let decoy_payload =
  Adversarial.payload ~kind:Adversarial.Decoy_decoder ~size:2048 (Rng.create 23L)

let adm_payload =
  (Admmutate.generate (Rng.create 7L) ~payload:shellcode).Admmutate.code

let test_pipeline_demotes_decoy () =
  let off = Pipeline.create base_config in
  Alcotest.(check bool) "decoy alerts without confirmation" true
    (Pipeline.process_packet off (payload_packet decoy_payload) <> []);
  let on = Pipeline.create confirm_config in
  Alcotest.(check int) "decoy demoted with confirmation" 0
    (List.length (Pipeline.process_packet on (payload_packet decoy_payload)));
  let s = Pipeline.stats on in
  Alcotest.(check bool) "refutation counted" true (s.Stats.refuted >= 1);
  Alcotest.(check int) "nothing confirmed" 0 s.Stats.confirmed

let test_pipeline_promotes_decoder () =
  let on = Pipeline.create confirm_config in
  let alerts = Pipeline.process_packet on (payload_packet adm_payload) in
  Alcotest.(check bool) "decoder still alerts" true (alerts <> []);
  List.iter
    (fun (a : Alert.t) ->
      Alcotest.(check bool) "alert marked confirmed" true a.Alert.confirmed)
    alerts;
  let s = Pipeline.stats on in
  Alcotest.(check bool) "confirmation counted" true (s.Stats.confirmed >= 1);
  Alcotest.(check int) "nothing refuted" 0 s.Stats.refuted

let test_pipeline_confirm_off_pristine () =
  let off = Pipeline.create base_config in
  let alerts = Pipeline.process_packet off (payload_packet adm_payload) in
  Alcotest.(check bool) "alerts without confirmation" true (alerts <> []);
  List.iter
    (fun (a : Alert.t) ->
      Alcotest.(check bool) "not marked confirmed" false a.Alert.confirmed)
    alerts;
  let s = Pipeline.stats off in
  Alcotest.(check int) "no confirm metrics" 0
    (s.Stats.confirmed + s.Stats.refuted + s.Stats.confirm_inconclusive)

let test_cache_admission () =
  (* refuted analyses must not enter the verdict cache; confirmed ones
     must *)
  let on = Pipeline.create confirm_config in
  ignore (Pipeline.process_packet on (payload_packet ~ts:1.0 decoy_payload));
  ignore (Pipeline.process_packet on (payload_packet ~ts:2.0 decoy_payload));
  Alcotest.(check int) "refuted payload never cached" 0
    (Pipeline.stats on).Stats.verdict_cache_hits;
  let on = Pipeline.create confirm_config in
  ignore (Pipeline.process_packet on (payload_packet ~ts:1.0 adm_payload));
  ignore (Pipeline.process_packet on (payload_packet ~ts:2.0 adm_payload));
  Alcotest.(check bool) "confirmed payload cached" true
    ((Pipeline.stats on).Stats.verdict_cache_hits >= 1)

let test_benign_pipeline_unconfirmed () =
  let clients = Ipaddr.prefix_of_string "10.1.0.0/16" in
  let servers = Ipaddr.prefix_of_string "10.2.0.0/16" in
  let on = Pipeline.create confirm_config in
  let pkts =
    Benign_gen.packets (Rng.create 5L) ~n:100 ~t0:0.0 ~clients ~servers
  in
  Alcotest.(check int) "benign stays silent under confirmation" 0
    (List.length (Pipeline.process_packets on pkts));
  Alcotest.(check int) "nothing confirmed on benign traffic" 0
    (Pipeline.stats on).Stats.confirmed

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "confirm"
    [
      ( "outcomes",
        [
          Alcotest.test_case "admmutate decoders confirm" `Quick test_admmutate_confirms;
          Alcotest.test_case "staged decoders confirm" `Quick test_admmutate_staged_confirms;
          Alcotest.test_case "clet decoders confirm" `Quick test_clet_confirms;
          Alcotest.test_case "shellcodes confirm" `Quick test_shellcodes_confirm;
          Alcotest.test_case "benign never confirms" `Quick test_benign_never_confirms;
          Alcotest.test_case "decoy decoders refuted" `Quick test_decoy_refuted;
          Alcotest.test_case "determinism" `Quick test_determinism;
        ] );
      ( "classification",
        [
          Alcotest.test_case "execve registers" `Quick test_execve_register_check;
          Alcotest.test_case "socketcall registers" `Quick test_socketcall_register_check;
          Alcotest.test_case "non-linux interrupt" `Quick test_non_linux_interrupt_refutes;
          Alcotest.test_case "fault refutes" `Quick test_fault_refutes;
          Alcotest.test_case "budget inconclusive" `Quick test_budget_inconclusive;
          Alcotest.test_case "seed failures" `Quick test_seed_failures_inconclusive;
        ] );
      ( "config",
        [
          Alcotest.test_case "spec roundtrip" `Quick test_config_spec_roundtrip;
          Alcotest.test_case "lint codes" `Quick test_config_lint_codes;
          Alcotest.test_case "of_spec" `Quick test_config_of_spec;
        ] );
      ( "emulator-api",
        [ Alcotest.test_case "mem _opt bounds" `Quick test_mem_opt_bounds ] );
      ( "harness",
        [
          Alcotest.test_case "pass/fail/filter/jobs" `Quick test_harness_pass_and_fail;
          Alcotest.test_case "errors" `Quick test_harness_errors;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "decoy demoted" `Quick test_pipeline_demotes_decoy;
          Alcotest.test_case "decoder promoted" `Quick test_pipeline_promotes_decoder;
          Alcotest.test_case "confirm off pristine" `Quick test_pipeline_confirm_off_pristine;
          Alcotest.test_case "cache admission" `Quick test_cache_admission;
          Alcotest.test_case "benign unconfirmed" `Quick test_benign_pipeline_unconfirmed;
        ] );
    ]
