(* Shared plumbing for the per-subcommand modules: BSD sysexits codes,
   small file helpers, and cmdliner argument combinators.

   Every spec-valued flag (--budget, --breaker, --fault, --drop-policy,
   --set) goes through [spec_conv] over the same {!Spec} codecs the
   daemon's hot-reload path uses ({!Config.of_spec} / {!Config.of_file}),
   so a bad flag and a rejected reload produce the same message. *)

open Sanids
open Cmdliner

(* BSD sysexits-style codes, cram-tested: bad flags or configuration
   are the caller's fault (64), data a decoder or gate rejects is bad
   input (65), a missing input file is 66, an unreachable daemon is
   69, anything unexpected is ours (70), an output file that cannot be
   written is 73. *)
let exit_usage = 64
let exit_dataerr = 65
let exit_noinput = 66
let exit_unavailable = 69
let exit_cantcreat = 73
let exit_software = 70

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Log classification and alerts as they happen.")

let read_file path =
  match File.read path with
  | Ok s -> s
  | Error m ->
      Printf.eprintf "sanids: %s\n" m;
      exit exit_noinput

let write_file path data =
  match File.write path data with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "sanids: %s\n" m;
      exit exit_cantcreat

(* ------------------------------------------------------------------ *)
(* argument combinators *)

(* Lift a {!Spec} codec into a cmdliner converter — the one bridge
   between the library's spec grammar and the command line. *)
let spec_conv (c : _ Spec.t) =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (c.Spec.parse s)),
      fun ppf v -> Format.pp_print_string ppf (c.Spec.print v) )

let ipaddr_conv =
  let parse s =
    Option.to_result (Ipaddr.of_string_opt s) ~none:(Printf.sprintf "bad IPv4 address %S" s)
  in
  spec_conv { Spec.parse; print = Ipaddr.to_string }

let prefix_conv =
  let parse s =
    Option.to_result (Ipaddr.prefix_of_string_opt s)
      ~none:(Printf.sprintf "bad prefix %S (want a.b.c.d/len)" s)
  in
  spec_conv { Spec.parse; print = Ipaddr.prefix_to_string }

let policy_conv =
  spec_conv { Spec.parse = Bqueue.policy_of_string_result; print = Bqueue.policy_to_string }

(* [--set key=value] parses through the daemon's reload grammar
   ({!Config.of_spec}), yielding a configuration updater. *)
let set_conv =
  let parse s = Result.map (fun update -> (s, update)) (Config.of_spec s) in
  spec_conv { Spec.parse; print = fst }

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N" ~doc:"Deterministic RNG seed.")

let file_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* ------------------------------------------------------------------ *)
(* the shared configuration flag set

   [scan], [lint --config] and [serve] assemble a {!Config.t} from the
   same flags; this term evaluates to an updater applied to
   [Config.default] (or whatever base the subcommand chooses), with
   [--set] specs composing after the dedicated flags. *)

let config_term =
  let honeypots =
    Arg.(value & opt_all ipaddr_conv []
         & info [ "honeypot" ] ~docv:"IP"
             ~doc:"Register a honeypot decoy address (repeatable).")
  in
  let unused =
    Arg.(value & opt_all prefix_conv []
         & info [ "unused" ] ~docv:"CIDR"
             ~doc:"Declare unused address space for scan detection \
                   (repeatable).")
  in
  let no_classify =
    Arg.(value & flag
         & info [ "no-classify" ]
             ~doc:"Disable classification: analyze every payload (the \
                   paper's false-positive-run configuration).")
  in
  let no_extract =
    Arg.(value & flag
         & info [ "no-extract" ]
             ~doc:"Disable binary extraction: hand whole payloads to the \
                   disassembler (reference-[5] style).")
  in
  let scan_threshold =
    Arg.(value & opt int Config.default.Config.scan_threshold
         & info [ "scan-threshold" ] ~docv:"N"
             ~doc:"Distinct unused addresses before a source is flagged.")
  in
  let verdict_cache =
    Arg.(value & opt int Config.default.Config.verdict_cache_size
         & info [ "verdict-cache" ] ~docv:"N"
             ~doc:"Verdict cache capacity (0 disables).")
  in
  let queue =
    Arg.(value & opt int Config.default.Config.stream_queue_capacity
         & info [ "queue" ] ~docv:"N"
             ~doc:"Per-worker admission queue capacity (stream mode).")
  in
  let drop_policy =
    Arg.(value & opt policy_conv Config.default.Config.stream_drop_policy
         & info [ "drop-policy" ] ~docv:"POLICY"
             ~doc:"Full-queue behaviour in stream mode: $(b,block) \
                   (lossless backpressure), $(b,drop_newest) or \
                   $(b,drop_oldest); shed packets are counted as \
                   sanids_shed_total.")
  in
  let budget =
    Arg.(value & opt (some (spec_conv Budget.limits_spec)) None
         & info [ "budget" ] ~docv:"SPEC"
             ~doc:"Per-packet analysis work budget: $(b,default) or \
                   $(b,bytes=N,insns=N,steps=N,deadline=S) - the \
                   adversarial-load ceiling on extraction, disassembly \
                   and matching.  Truncated analyses are counted as \
                   sanids_budget_truncated_total.")
  in
  let breaker =
    Arg.(value & opt (some (spec_conv Breaker.config_spec)) None
         & info [ "breaker" ] ~docv:"SPEC"
             ~doc:"Per-template circuit breaker: $(b,default) or \
                   $(b,fails=N,cooldown=N,max=N) (cooldowns counted in \
                   analyzed packets).  Open transitions are counted as \
                   sanids_breaker_open_total.")
  in
  let confirm =
    Arg.(value & opt (some (spec_conv Confirm.config_spec)) None
         & info [ "confirm" ] ~docv:"SPEC"
             ~doc:"Dynamic confirmation: $(b,default) or \
                   $(b,steps=N,syscalls=N,written=N,arena=N).  Every \
                   matcher hit is executed in the sandboxed emulator; \
                   refuted matches are demoted (no alert), confirmed \
                   ones marked, outcomes counted as \
                   sanids_confirm_total.")
  in
  let static_refute =
    Arg.(value & flag
         & info [ "static-refute" ]
             ~doc:"Abstract refutation pre-stage for $(b,--confirm): \
                   before each emulator run, execute the hit abstractly \
                   over an interval domain under the same budgets and \
                   demote hits that provably cannot confirm without ever \
                   entering the emulator (counted as \
                   sanids_confirm_total{outcome=static_refuted}).  Sound: \
                   verdicts are unchanged, only emulator calls are \
                   avoided.")
  in
  let degrade =
    Arg.(value & flag
         & info [ "degrade" ]
             ~doc:"When analysis is budget-truncated or templates are \
                   held open by the breaker, fall back to the cheap \
                   baseline pattern pass instead of silently reporting \
                   less; degraded alerts carry a [degraded] marker and \
                   sanids_degraded_total counts the fallbacks.")
  in
  let sets =
    Arg.(value & opt_all set_conv []
         & info [ "set" ] ~docv:"KEY=VALUE"
             ~doc:("Set a configuration key through the key=value grammar \
                    shared with $(b,--config-file) and the daemon's hot \
                    reload (repeatable, applied after the dedicated \
                    flags; keys: "
                   ^ String.concat ", " Config.spec_keys
                   ^ ")."))
  in
  let build honeypots unused no_classify no_extract scan_threshold
      verdict_cache queue drop_policy budget breaker confirm static_refute
      degrade sets cfg =
    let cfg =
      cfg
      |> Config.with_honeypots honeypots
      |> Config.with_unused unused
      |> Config.with_classification (not no_classify)
      |> Config.with_extraction (not no_extract)
      |> Config.with_scan_threshold scan_threshold
      |> Config.with_verdict_cache verdict_cache
      |> Config.with_stream_queue queue
      |> Config.with_stream_policy drop_policy
      |> Config.with_budget budget
      |> Config.with_breaker breaker
      |> Config.with_confirm confirm
      |> Config.with_static_refute static_refute
      |> Config.with_degrade degrade
    in
    List.fold_left (fun cfg (_, update) -> update cfg) cfg sets
  in
  Term.(
    const build $ honeypots $ unused $ no_classify $ no_extract
    $ scan_threshold $ verdict_cache $ queue $ drop_policy $ budget $ breaker
    $ confirm $ static_refute $ degrade $ sets)
