(* The command line's configuration flags, held to the key table they
   are folded from: every key has a flag, a flag does what [--set
   key=value] does, flags apply only when given, and a bad value exits
   64 with the key's own codec message. *)

open Sanids_nids
module Ipaddr = Sanids_net.Ipaddr
open Cmdliner

(* One valid value per key that moves [Config.default], and the flags
   that set it.  A key missing here fails [every key has a case]. *)
let cases =
  [
    ("honeypot", "10.0.0.9", [ "--honeypot"; "10.0.0.9" ]);
    ("unused", "10.9.0.0/16", [ "--unused"; "10.9.0.0/16" ]);
    ("scan_threshold", "7", [ "--scan-threshold"; "7" ]);
    ("classify", "false", [ "--no-classify" ]);
    ("extract", "false", [ "--no-extract" ]);
    ("min_payload", "3", [ "--min-payload"; "3" ]);
    ("reassemble", "true", [ "--reassemble" ]);
    ("verdict_cache", "64", [ "--verdict-cache"; "64" ]);
    ("flow_alert_cache", "9", [ "--flow-alert-cache"; "9" ]);
    ("queue", "3", [ "--queue"; "3" ]);
    ("drop_policy", "drop_oldest", [ "--drop-policy"; "drop_oldest" ]);
    ("budget", "bytes=4096,insns=100,steps=1000,deadline=0",
     [ "--budget"; "bytes=4096,insns=100,steps=1000,deadline=0" ]);
    ("breaker", "default", [ "--breaker"; "default" ]);
    ("degrade", "true", [ "--degrade" ]);
    ("confirm", "steps=5000,syscalls=4,written=64,arena=65536",
     [ "--confirm"; "steps=5000,syscalls=4,written=64,arena=65536" ]);
    ("static_refute", "true", [ "--static-refute" ]);
  ]

let cmd = Cmd.v (Cmd.info "t") Cli_common.config_term

let flags argv =
  match Cmd.eval_value ~argv:(Array.of_list ("t" :: argv)) cmd with
  | Ok (`Ok build) -> build
  | Ok (`Help | `Version) | Error _ -> Alcotest.failf "flags %s rejected" (String.concat " " argv)

let set spec =
  match Config.of_spec spec with Ok update -> update | Error m -> Alcotest.fail m

(* The template list holds closures; every other field compares. *)
let comparable (c : Config.t) = { c with Config.templates = [] }

let check_config what expected actual =
  Alcotest.(check bool) what true (comparable expected = comparable actual)

let test_every_key_has_a_case () =
  Alcotest.(check (list string))
    "keys with a case" (List.sort compare Config.spec_keys)
    (List.sort compare (List.map (fun (key, _, _) -> key) cases))

let test_flag_is_set () =
  List.iter
    (fun (key, v, argv) ->
      let by_set = set (key ^ "=" ^ v) Config.default in
      Alcotest.(check bool) (key ^ " moves the default") false
        (comparable by_set = comparable Config.default);
      check_config (String.concat " " argv ^ " = --set " ^ key ^ "=" ^ v)
        by_set (flags argv Config.default))
    cases

let test_only_given_flags_apply () =
  let base =
    Config.default
    |> Config.with_classification false
    |> Config.with_scan_threshold 9
    |> Config.with_honeypots [ Ipaddr.of_string "10.0.0.1" ]
  in
  check_config "no flags keep the base" base (flags [] base);
  check_config "a flag appends to the base's honeypots"
    (Config.with_honeypots [ Ipaddr.of_string "10.0.0.1"; Ipaddr.of_string "10.0.0.2" ] base)
    (flags [ "--honeypot"; "10.0.0.2" ] base)

let test_set_applies_after_flags () =
  check_config "--set wins" (Config.with_scan_threshold 4 Config.default)
    (flags [ "--set"; "scan_threshold=4"; "--scan-threshold"; "3" ] Config.default)

(* cmdliner breaks long error lines; compare with whitespace collapsed *)
let squeeze s =
  String.map (function '\n' | '\t' -> ' ' | c -> c) s
  |> String.split_on_char ' ' |> List.filter (( <> ) "") |> String.concat " "

let test_bad_value_exits_usage () =
  List.iter
    (fun (key, _, argv) ->
      match argv with
      | [ flag; _ ] ->
          let message =
            match Config.of_spec (key ^ "=bogus") with
            | Error m -> m
            | Ok _ -> Alcotest.failf "%s=bogus accepted" key
          in
          let buf = Buffer.create 256 in
          let err = Format.formatter_of_buffer buf in
          let code =
            Cli_common.eval ~err ~argv:[| "t"; flag; "bogus" |]
              (Cmd.v (Cmd.info "t") Term.(const ignore $ Cli_common.config_term))
          in
          Format.pp_print_flush err ();
          Alcotest.(check int) (flag ^ " bogus exits") Cli_common.exit_usage code;
          if not (Search.contains ~needle:(squeeze message) (squeeze (Buffer.contents buf))) then
            Alcotest.failf "%s bogus: %S does not carry %S" flag (Buffer.contents buf) message
      | _ -> ())
    cases

let () =
  Alcotest.run "cli"
    [
      ( "config-flags",
        [
          Alcotest.test_case "every key has a case" `Quick test_every_key_has_a_case;
          Alcotest.test_case "a flag is --set key=value" `Quick test_flag_is_set;
          Alcotest.test_case "only given flags apply" `Quick test_only_given_flags_apply;
          Alcotest.test_case "--set applies after the flags" `Quick
            test_set_applies_after_flags;
          Alcotest.test_case "a bad value exits 64 with its codec's message" `Quick
            test_bad_value_exits_usage;
        ] );
    ]
