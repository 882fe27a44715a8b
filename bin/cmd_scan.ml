(* sanids scan / sig-scan: run detectors over a capture file. *)

open Sanids
open Cmdliner
open Cli_common

let scan_cmd =
  let pcap_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CAPTURE.pcap")
  in
  let metrics_out =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the final metrics snapshot as Prometheus text \
                 exposition to $(docv).")
  in
  let trace_out =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write stage spans as JSONL trace events to $(docv).")
  in
  let trace_sample =
    Arg.(value & opt int 1 & info [ "trace-sample" ] ~docv:"N"
           ~doc:"Emit every N-th span (with --trace).")
  in
  let fault =
    Arg.(value & opt (some (spec_conv Fault.spec)) None & info [ "fault" ] ~docv:"SPEC"
           ~doc:"Corrupt the capture before analysis, e.g. \
                 $(b,truncate=0.1,bitflip=0.05,dup=0.01,reorder=0.2,garbage=0.02) \
                 - resilience drills against the typed ingest boundary.")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"RNG seed for --fault (same spec and seed replay the same \
                 corruption).")
  in
  let stream =
    Arg.(value & flag & info [ "stream" ]
           ~doc:"Process the capture through the multicore stream pipeline \
                 (bounded admission queues, load shedding per \
                 --drop-policy).")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains for --stream (default: the machine's \
                 recommended count, capped at 8).")
  in
  let run path build_cfg fault fault_seed stream domains metrics_out
      trace_out trace_sample verbose =
    setup_logs verbose;
    let cfg = build_cfg Config.default in
    match Config.validate cfg with
    | Error msg ->
        Printf.eprintf "sanids scan: invalid configuration: %s\n" msg;
        exit exit_usage
    | Ok cfg -> (
        if trace_sample <= 0 then begin
          Printf.eprintf "sanids scan: --trace-sample must be positive (got %d)\n"
            trace_sample;
          exit exit_usage
        end;
        (* all decoding goes through the typed ingest boundary: framing
           faults are fatal bad data (65), per-record faults are counted
           and skipped, and the ingest counters join the exported
           snapshot so records_in reconciles with packets + errors +
           shed *)
        let ingest_reg = Obs.Registry.create () in
        let ing = Ingest.metrics ingest_reg in
        match Ingest.decode_file ~metrics:ing (read_file path) with
        | Error e ->
            Printf.eprintf "sanids scan: %s: %s\n" path (Ingest.error_to_string e);
            exit exit_dataerr
        | Ok capture ->
            let capture =
              match fault with
              | None -> capture
              | Some plan -> Fault.file ~seed:(Int64.of_int fault_seed) plan capture
            in
            let packets = Ingest.ok_packets ~metrics:ing capture in
            let snap, help_regs, no_alerts =
              if stream then begin
                if trace_out <> None then
                  Printf.eprintf "sanids scan: --trace is ignored with --stream\n";
                let count = ref 0 in
                let snap =
                  Parallel.process_seq_snapshot ?domains cfg (List.to_seq packets)
                    (fun alerts ->
                      List.iter
                        (fun a ->
                          incr count;
                          print_endline (Alert.to_line a))
                        alerts)
                in
                (snap, [ ingest_reg ], !count = 0)
              end
              else begin
                let trace_oc = Option.map open_out trace_out in
                let tracer =
                  Option.map (Obs.Span.tracer ~sample:trace_sample) trace_oc
                in
                let nids = Pipeline.create ?tracer cfg in
                let alerts = Pipeline.process_packets nids packets in
                List.iter (fun a -> print_endline (Alert.to_line a)) alerts;
                (match tracer with Some t -> Obs.Span.flush t | None -> ());
                Option.iter close_out trace_oc;
                (Pipeline.snapshot nids, [ Pipeline.registry nids; ingest_reg ],
                 alerts = [])
              end
            in
            let snap = Obs.Snapshot.merge snap (Obs.Registry.snapshot ingest_reg) in
            Format.printf "%a@." Stats.pp (Stats.of_snapshot snap);
            (match metrics_out with
            | Some file ->
                let help n =
                  List.find_map (fun r -> Obs.Registry.help r n) help_regs
                in
                write_file file (Obs.Export.to_prometheus ~help snap)
            | None -> ());
            if no_alerts then print_endline "no alerts")
  in
  Cmd.v
    (Cmd.info "scan" ~doc:"Run the semantics-aware NIDS over a pcap capture.")
    Term.(
      const run $ pcap_arg $ config_term $ fault $ fault_seed $ stream
      $ domains $ metrics_out $ trace_out $ trace_sample $ verbose_arg)

let sig_scan_cmd =
  let rules_file =
    Arg.(value & opt (some file) None & info [ "rules" ] ~docv:"FILE"
           ~doc:"Snort-style rule file (default: the shipped ruleset).")
  in
  let run path rules_file =
    let text =
      match rules_file with Some f -> read_file f | None -> Rule.default_ruleset
    in
    let rules, errors = Rule.parse_many text in
    List.iter (fun (line, e) -> Printf.eprintf "rule line %d: %s\n" line e) errors;
    Printf.printf "loaded %d rules\n" (List.length rules);
    let capture =
      match Pcap.decode (read_file path) with
      | Ok f -> f
      | Error m ->
          Printf.eprintf "sanids sig-scan: %s: %s\n" path m;
          exit exit_dataerr
    in
    let hits = ref 0 in
    List.iter
      (fun p ->
        List.iter
          (fun msg ->
            incr hits;
            Printf.printf "[%.3f] SIG %s %s -> %s\n" p.Packet.ts msg
              (Ipaddr.to_string (Packet.src p))
              (Ipaddr.to_string (Packet.dst p)))
          (Rule.match_packet rules p))
      (Ingest.ok_packets capture);
    if !hits = 0 then print_endline "no signature matches"
  in
  Cmd.v
    (Cmd.info "sig-scan"
       ~doc:"Run the Snort-style signature baseline over a pcap capture.")
    Term.(const run $ file_pos $ rules_file)
