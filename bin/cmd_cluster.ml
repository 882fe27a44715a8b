(* sanids sensor / aggregate: the federated cluster's two roles.

   A sensor is the serve daemon plus a shipping sidecar: it runs the
   usual engine over its traffic shard (same flags, same control
   socket) and ships periodic snapshot deltas to the aggregator
   at-least-once, journaling them to a spool directory until acked.
   The aggregator listens on the same control plane, dedups the delta
   streams into one exact cluster view, and runs the failure detector
   over sensor liveness. *)

open Sanids
open Cmdliner
open Cli_common

let backoff_arg =
  Arg.(value & opt (spec_conv Backoff.spec) Backoff.default
       & info [ "backoff" ] ~docv:"SPEC"
           ~doc:"Retry policy for every aggregator-channel edge: \
                 $(b,base=0.05,factor=2,cap=2,jitter=0.5,timeout=5) (any \
                 subset of keys over the default).")

let sensor_cmd =
  let id_arg =
    Arg.(required & opt (some string) None & info [ "id" ] ~docv:"NAME"
           ~doc:"Sensor identity on the cluster wire ([A-Za-z0-9_.-]+, \
                 at most 64 bytes).  Epoch and sequence numbers are \
                 scoped to it.")
  in
  let aggregator_socket =
    Arg.(value & opt (some string) None
         & info [ "aggregator-socket" ] ~docv:"PATH"
             ~doc:"The aggregator's Unix-domain socket.")
  in
  let aggregator_port =
    Arg.(value & opt (some int) None
         & info [ "aggregator-port" ] ~docv:"PORT"
             ~doc:"The aggregator's loopback TCP port (alternative to \
                   $(b,--aggregator-socket)).")
  in
  let spool_arg =
    Arg.(required & opt (some string) None & info [ "spool" ] ~docv:"DIR"
           ~doc:"Crash journal directory: unacked deltas and the \
                 incarnation epoch live here; respawning over the same \
                 directory replays them losslessly.")
  in
  let ship_every =
    Arg.(value & opt float 1.0 & info [ "ship-every" ] ~docv:"SECONDS"
           ~doc:"Interval between snapshot-delta cuts shipped to the \
                 aggregator.")
  in
  let connect_timeout =
    Arg.(value & opt float 10.0 & info [ "connect-timeout" ] ~docv:"SECONDS"
           ~doc:"How long the startup probe chases the aggregator before \
                 failing with EX_UNAVAILABLE.")
  in
  let heartbeat_every =
    Arg.(value & opt float 1.0 & info [ "heartbeat-every" ] ~docv:"SECONDS"
           ~doc:"Quiet-channel heartbeat interval (0 disables).")
  in
  let channel_fault =
    Arg.(value & opt (spec_conv Cluster_fault.spec) []
         & info [ "channel-fault" ] ~docv:"SPEC"
             ~doc:"Test-only delivery faults on the delta channel: \
                   $(b,drop=P,dup=P,delay=P,reorder=P,truncate=P).  The \
                   view stays exact regardless - that is the point.")
  in
  let fault_seed =
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed for --channel-fault rolls and retry jitter.")
  in
  let flush_timeout =
    Arg.(value & opt (some float) None
         & info [ "flush-timeout" ] ~docv:"SECONDS"
             ~doc:"How long the post-drain flush may chase acks before \
                   exiting with the rest journaled for replay (default: \
                   wait forever).")
  in
  let run engine id aggregator_socket aggregator_port spool ship_every backoff
      connect_timeout heartbeat_every channel_fault fault_seed flush_timeout
      socket port verbose =
    setup_logs verbose;
    let aggregator =
      match Cmd_serve.listen_of aggregator_socket aggregator_port with
      | Some l -> l
      | None ->
          Printf.eprintf
            "sanids sensor: --aggregator-socket or --aggregator-port is \
             required\n";
          exit exit_usage
    in
    let options =
      {
        Sensor.sensor_id = id;
        aggregator;
        spool_dir = spool;
        serve = { engine with Serve.listen = Cmd_serve.listen_of socket port };
        ship_every;
        backoff;
        connect_timeout;
        heartbeat_every;
        channel_fault;
        fault_seed = Int64.of_int fault_seed;
        flush_timeout;
      }
    in
    match Sensor.run options with
    | Ok () -> ()
    | Error e ->
        Printf.eprintf "sanids sensor: %s\n" (Sensor.error_to_string e);
        exit
          (match e with
          | Sensor.Invalid_id _ -> exit_usage
          | Sensor.Unreachable _ | Sensor.Flush_timeout _ -> exit_unavailable
          | Sensor.Spool_error _ -> exit_software
          | Sensor.Serve_error se -> Cmd_serve.serve_exit_code se)
  in
  Cmd.v
    (Cmd.info "sensor"
       ~doc:"Run a federated sensor: the serve engine over a traffic \
             shard, shipping snapshot deltas to an aggregator \
             at-least-once with a crash journal and heartbeats.")
    Term.(
      const run $ Cmd_serve.engine_term $ id_arg $ aggregator_socket
      $ aggregator_port $ spool_arg $ ship_every $ backoff_arg
      $ connect_timeout $ heartbeat_every $ channel_fault $ fault_seed
      $ flush_timeout $ Cmd_serve.socket_arg $ Cmd_serve.port_arg
      $ verbose_arg)

let aggregate_cmd =
  let suspect_after =
    Arg.(value & opt float Cluster_detector.default_config.Cluster_detector.suspect_after
         & info [ "suspect-after" ] ~docv:"SECONDS"
             ~doc:"Silence before a sensor is marked suspect.")
  in
  let dead_after =
    Arg.(value & opt float Cluster_detector.default_config.Cluster_detector.dead_after
         & info [ "dead-after" ] ~docv:"SECONDS"
             ~doc:"Silence before a sensor is marked dead.")
  in
  let tick_every =
    Arg.(value & opt float 0.2 & info [ "tick-every" ] ~docv:"SECONDS"
           ~doc:"Failure-detector tick interval.")
  in
  let run socket port suspect_after dead_after tick_every verbose =
    setup_logs verbose;
    let listen =
      match Cmd_serve.listen_of socket port with
      | Some l -> l
      | None ->
          Printf.eprintf "sanids aggregate: --socket or --port is required\n";
          exit exit_usage
    in
    let detector =
      match
        Cluster_detector.validate
          { Cluster_detector.suspect_after; dead_after }
      with
      | Ok d -> d
      | Error m ->
          Printf.eprintf "sanids aggregate: %s\n" m;
          exit exit_usage
    in
    let options =
      { Aggregator.default_options with Aggregator.listen; detector; tick_every }
    in
    match Aggregator.run options with
    | Ok () -> ()
    | Error m ->
        Printf.eprintf "sanids aggregate: %s\n" m;
        exit exit_unavailable
  in
  Cmd.v
    (Cmd.info "aggregate"
       ~doc:"Run the cluster aggregator: dedup every sensor's delta \
             stream into one exact cluster view, detect failed sensors, \
             and serve the merged metrics.")
    Term.(
      const run $ Cmd_serve.socket_arg $ Cmd_serve.port_arg $ suspect_after
      $ dead_after $ tick_every $ verbose_arg)
