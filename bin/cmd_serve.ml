(* sanids serve / ctl: the long-lived daemon and its control client. *)

open Sanids
open Cmdliner
open Cli_common

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Unix-domain control/metrics socket path.")

let port_arg =
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT"
         ~doc:"Loopback TCP control/metrics port (alternative to \
               $(b,--socket)).")

let listen_of socket port =
  match (socket, port) with
  | Some _, Some _ ->
      Printf.eprintf "sanids: --socket and --port are mutually exclusive\n";
      exit exit_usage
  | Some path, None -> Some (Httpd.Unix_socket path)
  | None, Some port -> Some (Httpd.Tcp port)
  | None, None -> None

(* The engine options [serve] and [sensor] share: the packet source,
   the configuration with its reload gate, and the worker count. *)
let engine_term =
  let source =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE"
           ~doc:"Packet source: a pcap file (served to exhaustion), a \
                 FIFO carrying a pcap stream, or a spool directory \
                 watched for atomically-renamed-in .pcap files.")
  in
  let config_file =
    Arg.(value & opt (some file) None & info [ "config-file" ] ~docv:"FILE"
           ~doc:"key=value configuration applied over the flags; re-read \
                 and re-linted on every reload (SIGHUP or ctl reload).")
  in
  let rules_file =
    Arg.(value & opt (some file) None & info [ "rules" ] ~docv:"FILE"
           ~doc:"Snort-style rule file linted as part of the reload gate.")
  in
  let domains =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Worker domains (default: the machine's recommended \
                 count, capped at 8).")
  in
  let options source build_cfg config_file rules_file domains =
    {
      Serve.default_options with
      Serve.source;
      base = build_cfg Config.default;
      config_file;
      rules_file;
      domains;
    }
  in
  Term.(const options $ source $ config_term $ config_file $ rules_file $ domains)

(* How a failed engine exits, under serve and sensor alike. *)
let serve_exit_code = function
  | Serve.Config_rejected _ -> exit_dataerr
  | Serve.Source_error _ -> exit_noinput
  | Serve.Socket_error _ -> exit_unavailable
  | Serve.Reconciliation_mismatch -> exit_software

let serve_cmd =
  let snapshot_out =
    Arg.(value & opt (some string) None & info [ "snapshot-out" ] ~docv:"FILE"
           ~doc:"Append periodic JSONL metric-delta snapshots to $(docv).")
  in
  let snapshot_every =
    Arg.(value & opt float 10.0 & info [ "snapshot-every" ] ~docv:"SECONDS"
           ~doc:"Interval between JSONL snapshots (with --snapshot-out).")
  in
  let poll_interval =
    Arg.(value & opt float 0.02 & info [ "poll-interval" ] ~docv:"SECONDS"
           ~doc:"Idle-source sleep between control polls.")
  in
  let run engine socket port snapshot_out snapshot_every poll_interval verbose =
    setup_logs verbose;
    let options =
      {
        engine with
        Serve.listen = listen_of socket port;
        snapshot_out;
        snapshot_every;
        poll_interval;
      }
    in
    match Serve.run options with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "sanids serve: %s\n" (Serve.error_to_string e);
        exit (serve_exit_code e)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve as a long-lived daemon: stream a pcap file, FIFO or \
             spool directory through the multicore pipeline with \
             lint-gated hot reload, a live metrics endpoint, and \
             graceful drain.")
    Term.(
      const run $ engine_term $ socket_arg $ port_arg $ snapshot_out
      $ snapshot_every $ poll_interval $ verbose_arg)

let ctl_cmd =
  let command_arg =
    Arg.(required
         & pos 0
             (some
                (enum
                   [
                     ("metrics", `Metrics); ("health", `Health);
                     ("reload", `Reload); ("drain", `Drain);
                   ]))
             None
         & info [] ~docv:"COMMAND"
             ~doc:"$(b,metrics) (Prometheus text), $(b,health) (lifecycle \
                   state), $(b,reload) (run the lint gate; blocks until \
                   applied or rejected), $(b,drain) (graceful shutdown; \
                   blocks until stopped).")
  in
  let timeout =
    Arg.(value & opt float 10.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Connect/response deadline (connecting retries until the \
                 deadline, absorbing daemon start-up).")
  in
  let run command socket port timeout =
    let listen =
      match listen_of socket port with
      | Some l -> l
      | None ->
          Printf.eprintf "sanids ctl: --socket or --port is required\n";
          exit exit_usage
    in
    let verb, path =
      match command with
      | `Metrics -> ("GET", "/metrics")
      | `Health -> ("GET", "/healthz")
      | `Reload -> ("POST", "/-/reload")
      | `Drain -> ("POST", "/-/drain")
    in
    match Httpd.request ~timeout listen ~verb ~path () with
    | Error m ->
        Printf.eprintf "sanids ctl: %s\n" m;
        exit exit_unavailable
    | Ok (status, body) ->
        print_string body;
        if status >= 200 && status < 300 then ()
        else if status = 409 then exit exit_dataerr
          (* a rejected reload is bad configuration data *)
        else exit exit_software
  in
  Cmd.v
    (Cmd.info "ctl"
       ~doc:"Control a running serve daemon over its socket: scrape \
             metrics, check health, request a reload, or drain it.")
    Term.(const run $ command_arg $ socket_arg $ port_arg $ timeout)
