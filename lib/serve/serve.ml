(* The daemon engine: epochs of the existing stream pipeline under the
   {!Lifecycle} control plane.

   The one design decision everything else follows from: a serving
   *generation* is one [Parallel.process_seq_snapshot] run.  The feeder
   [Seq] checks the control plane before every packet; when a clean
   reload or a drain is pending it simply ends, which lets the stream
   pipeline's ordinary shutdown path (close queues, drain workers,
   join) retire the old generation without losing anything.  A
   *rejected* reload never ends the epoch — the old generation keeps
   serving untouched, which is the atomicity the reload gate promises.
   Packets the source has not yet yielded carry into the next epoch;
   with the default [Block] admission policy a generation swap sheds
   nothing.

   Threading: the engine runs on the daemon's main thread; the admin
   responder ({!Httpd}) is a sys-thread of the same domain, so both
   share the runtime lock and the control record below only needs a
   mutex for the *blocking* control commands (reload/drain wait for
   their outcome on the condition variable).  Worker domains never see
   any of this — they are behind [process_seq_snapshot]'s queues. *)

module Lint = Sanids_staticlint.Lint
module Finding = Sanids_staticlint.Finding
module Obs = Sanids_obs
module Source = Sanids_ingest.Source
module Ingest = Sanids_ingest.Ingest

type options = {
  source : string;  (** pcap file, FIFO, or spool directory *)
  base : Config.t;  (** flag-built configuration the spec file refines *)
  config_file : string option;  (** re-read and re-linted on every reload *)
  rules_file : string option;  (** linted as part of the reload gate *)
  listen : Httpd.listen option;
  snapshot_out : string option;  (** JSONL dump path (appended) *)
  snapshot_every : float;  (** seconds between dumps; [<= 0.] disables *)
  domains : int option;
  poll_interval : float;  (** idle-source sleep between control polls *)
  clock : unit -> float;
  install_signals : bool;  (** SIGHUP → reload, SIGTERM → drain *)
  on_delta : (Obs.Snapshot.t -> unit) option;
      (** observer of every periodic snapshot delta — the cluster
          sensor's shipping hook; runs on the feeder thread *)
}

let default_options =
  {
    source = "";
    base = Config.default;
    config_file = None;
    rules_file = None;
    listen = None;
    snapshot_out = None;
    snapshot_every = 0.;
    domains = None;
    poll_interval = 0.02;
    clock = Unix.gettimeofday;
    install_signals = true;
    on_delta = None;
  }

(* ------------------------------------------------------------------ *)
(* Reload gate: rebuild the candidate configuration from its sources of
   truth and refuse it if the linter finds any error-severity finding.
   Pure with respect to the daemon — callable from tests. *)

let build_candidate ~base ~config_file =
  match config_file with
  | None -> Ok base
  | Some path -> (
      match Config.of_file path with
      | Error m -> Error m
      | Ok update -> Ok (update base))

let gate ~rules_file candidate =
  let rules_findings =
    match rules_file with
    | None -> Ok []
    | Some path -> Result.map Lint.rules_text (File.read path)
  in
  match rules_findings with
  | Error m -> Error m
  | Ok rf ->
      let findings =
        Config.lint candidate
        @ Lint.templates candidate.Config.templates
        @ rf
      in
      if Finding.failed ~strict:false findings then
        let errors =
          List.filter (fun f -> f.Finding.severity = Finding.Error) findings
        in
        Error
          (String.concat "; " (List.map Finding.to_line errors))
      else Ok findings

let reload_candidate ~base ~config_file ~rules_file =
  match build_candidate ~base ~config_file with
  | Error m -> Error m
  | Ok candidate -> (
      match gate ~rules_file candidate with
      | Error m -> Error m
      | Ok _findings -> Ok candidate)

(* ------------------------------------------------------------------ *)
(* Control plane shared between the engine thread and the responder. *)

type outcome = Applied of int | Rejected of string

type control = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : Lifecycle.state;
  mutable pending : [ `None | `Reload | `Drain ];
  mutable attempts : int;  (* completed reload attempts *)
  mutable last_outcome : outcome option;
}

let make_control () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    state = Lifecycle.initial;
    pending = `None;
    attempts = 0;
    last_outcome = None;
  }

let with_lock c f =
  Mutex.lock c.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.mutex) f

(* A lifecycle [Error] is a protocol bug: log it loudly, keep the old
   state, and let the daemon continue — never crash the data plane over
   bookkeeping. *)
let transition c event =
  match Lifecycle.step c.state event with
  | Ok s -> c.state <- s
  | Error m -> Logs.err (fun f -> f "serve: %s" m)

let request c cmd =
  with_lock c (fun () ->
      (match (c.pending, cmd) with
      | `Drain, _ -> ()  (* drain wins; nothing overrides it *)
      | _, `Drain -> c.pending <- `Drain
      | `None, `Reload -> c.pending <- `Reload
      | `Reload, `Reload -> ());
      Condition.signal c.cond)

(* Block until reload attempt [n+1] completes (or the daemon stops). *)
let await_reload c =
  with_lock c (fun () ->
      let target = c.attempts + 1 in
      while c.attempts < target && not (Lifecycle.is_stopped c.state) do
        Condition.wait c.cond c.mutex
      done;
      if Lifecycle.is_stopped c.state && c.attempts < target then
        Rejected "daemon stopped before the reload completed"
      else
        match c.last_outcome with
        | Some o -> o
        | None -> Rejected "no reload outcome recorded")

let await_stopped c =
  with_lock c (fun () ->
      while not (Lifecycle.is_stopped c.state) do
        Condition.wait c.cond c.mutex
      done;
      Lifecycle.generation c.state)

(* ------------------------------------------------------------------ *)
(* Engine. *)

type metrics = {
  reg : Obs.Registry.t;
  generation : Obs.Registry.gauge;
  reload_applied : Obs.Registry.counter;
  reload_rejected : Obs.Registry.counter;
  epochs : Obs.Registry.counter;
  ingest : Ingest.metrics;
}

let make_metrics () =
  let reg = Obs.Registry.create () in
  let generation =
    Obs.Registry.gauge reg ~help:"active configuration generation"
      "sanids_config_generation"
  in
  let counter outcome =
    Obs.Registry.counter reg ~help:"reload attempts by outcome"
      ~labels:[ ("outcome", outcome) ] "sanids_reload_total"
  in
  (* pre-register both outcomes so a scrape always sees the family *)
  let reload_applied = counter "applied" in
  let reload_rejected = counter "rejected" in
  let epochs =
    Obs.Registry.counter reg ~help:"serving epochs started (generation swaps + 1)"
      "sanids_serve_epochs_total"
  in
  { reg; generation; reload_applied; reload_rejected; epochs; ingest = Ingest.metrics reg }

type t = {
  options : options;
  control : control;
  metrics : metrics;
  mutable cumulative : Obs.Snapshot.t;  (* retired epochs, merged *)
  mutable config : Config.t;
  mutable last_dump : Obs.Snapshot.t;
  mutable last_dump_at : float;
  sighup : bool Atomic.t;
  sigterm : bool Atomic.t;
}

(* Everything observable right now: the serve registry (control-plane
   counters + ingest) merged with every retired epoch's worker
   snapshot.  In-flight epoch counters appear when the epoch retires —
   worker registries are domain-local by design. *)
let observable t =
  Obs.Snapshot.merge (Obs.Registry.snapshot t.metrics.reg) t.cumulative

let say fmt = Printf.ksprintf (fun s -> print_string s; print_newline (); flush stdout) fmt

(* Periodic publication: cut one interval delta against the last cut
   and feed every configured sink — the JSONL dump file and/or the
   in-process [on_delta] observer (the cluster sensor).  One cut feeds
   both, so the file and the shipped stream agree delta for delta. *)
let dump_snapshot t ~final =
  if t.options.snapshot_out <> None || t.options.on_delta <> None then begin
    let now = t.options.clock () in
    let due =
      final
      || (t.options.snapshot_every > 0.
          && now -. t.last_dump_at >= t.options.snapshot_every)
    in
    if due then begin
      let current = observable t in
      let delta = Obs.Snapshot.diff ~newer:current ~older:t.last_dump in
      t.last_dump <- current;
      t.last_dump_at <- now;
      (match t.options.on_delta with Some f -> f delta | None -> ());
      match t.options.snapshot_out with
      | None -> ()
      | Some path ->
          let oc =
            open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 path
          in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Obs.Export.to_jsonl delta))
    end
  end

(* One feeder pull: poll signals and pending controls, then the source.
   Returns [Some packet] to keep the epoch running, [None] to end it —
   [epoch_exit] says why. *)
type exit_reason = Swap of Config.t | Drain | Exhausted

let feeder t source ~epoch_exit =
  let c = t.control in
  let handle_reload () =
    (* run the gate with the mutex released: it reads files *)
    with_lock c (fun () ->
        c.pending <- `None;
        transition c Lifecycle.Reload_request);
    match
      reload_candidate ~base:t.options.base
        ~config_file:t.options.config_file ~rules_file:t.options.rules_file
    with
    | Error reason ->
        Obs.Registry.incr t.metrics.reload_rejected;
        with_lock c (fun () ->
            transition c Lifecycle.Reload_rejected;
            c.attempts <- c.attempts + 1;
            c.last_outcome <- Some (Rejected reason);
            Condition.broadcast c.cond);
        say "serve: reload rejected: %s" reason;
        `Continue
    | Ok candidate ->
        (* the applied outcome is recorded only after the swap — the
           epoch must retire first *)
        epoch_exit := Some (Swap candidate);
        `Stop
  in
  let rec next () =
    if Atomic.exchange t.sigterm false then request c `Drain;
    if Atomic.exchange t.sighup false then request c `Reload;
    let cmd =
      with_lock c (fun () ->
          match c.pending with
          | `Drain ->
              c.pending <- `None;
              transition c Lifecycle.Drain_request;
              Condition.broadcast c.cond;
              `Drain
          | `Reload -> `Reload
          | `None -> `None)
    in
    match cmd with
    | `Drain ->
        epoch_exit := Some Drain;
        say "serve: draining";
        None
    | `Reload -> (
        match handle_reload () with `Continue -> next () | `Stop -> None)
    | `None -> (
        match Source.next source with
        | Source.Packet p ->
            (* a busy source never goes Idle, so the periodic cut must
               also be checked on the packet path (cheap: early-out on
               the cadence) *)
            dump_snapshot t ~final:false;
            Some p
        | Source.Eof ->
            epoch_exit := Some Exhausted;
            None
        | Source.Idle ->
            dump_snapshot t ~final:false;
            Unix.sleepf t.options.poll_interval;
            next ())
  in
  next

let reconciliation s =
  let records = Obs.Snapshot.counter_value s Ingest.records_total in
  let errors = Obs.Snapshot.counter_sum s Ingest.errors_total in
  let verdicts = Obs.Snapshot.counter_value s "sanids_packets_total" in
  let shed = Obs.Snapshot.counter_sum s "sanids_shed_total" in
  let failed = Obs.Snapshot.counter_value s "sanids_worker_failures_total" in
  let balanced = records = verdicts + errors + shed + failed in
  ( Printf.sprintf "records=%d verdicts=%d errors=%d shed=%d failed=%d %s" records verdicts
      errors shed failed
      (if balanced then "reconciled" else "MISMATCH"),
    balanced )

let reconcile t =
  let line, balanced = reconciliation (observable t) in
  say "serve: reconciliation %s" line;
  balanced

let handler t req =
  let c = t.control in
  match (req.Httpd.verb, req.Httpd.path) with
  | ("GET" | "HEAD"), "/metrics" ->
      let help = Obs.Registry.help t.metrics.reg in
      Httpd.ok (Obs.Export.to_prometheus ~help (observable t))
  | ("GET" | "HEAD"), "/healthz" ->
      let state, gen =
        with_lock c (fun () ->
            (Lifecycle.state_to_string c.state, Lifecycle.generation c.state))
      in
      Httpd.ok ~content_type:"text/plain"
        (Printf.sprintf "ok state=%s generation=%d\n" state gen)
  | ("POST" | "GET"), "/-/reload" -> (
      let refused =
        with_lock c (fun () -> not (Lifecycle.can_serve c.state))
      in
      if refused then Httpd.error 503 "not serving\n"
      else begin
        request c `Reload;
        match await_reload c with
        | Applied g ->
            Httpd.ok ~content_type:"text/plain"
              (Printf.sprintf "applied generation=%d\n" g)
        | Rejected reason ->
            Httpd.error 409 (Printf.sprintf "rejected: %s\n" reason)
      end)
  | ("POST" | "GET"), "/-/drain" ->
      request c `Drain;
      let gen = await_stopped c in
      Httpd.ok ~content_type:"text/plain"
        (Printf.sprintf "drained generation=%d\n" gen)
  | _, ("/metrics" | "/healthz" | "/-/reload" | "/-/drain") ->
      Httpd.error 405 "method not allowed\n"
  | _ -> Httpd.error 404 "not found\n"

let install_signal_handlers t =
  if t.options.install_signals then begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    let flag a = Sys.Signal_handle (fun _ -> Atomic.set a true) in
    (try Sys.set_signal Sys.sighup (flag t.sighup)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigterm (flag t.sigterm)
     with Invalid_argument _ | Sys_error _ -> ())
  end

type error =
  | Config_rejected of string
  | Source_error of string
  | Socket_error of string
  | Reconciliation_mismatch

let error_to_string = function
  | Config_rejected m -> "configuration rejected: " ^ m
  | Source_error m -> "source: " ^ m
  | Socket_error m -> "control socket: " ^ m
  | Reconciliation_mismatch -> "reconciliation mismatch"

let run options =
  (* startup gate: refuse to serve a configuration that would be
     rejected on reload — the daemon must never start dirty *)
  match
    reload_candidate ~base:options.base ~config_file:options.config_file
      ~rules_file:options.rules_file
  with
  | Error reason -> Error (Config_rejected reason)
  | Ok config -> (
      let t =
        {
          options;
          control = make_control ();
          metrics = make_metrics ();
          cumulative = Obs.Snapshot.empty;
          config;
          last_dump = Obs.Snapshot.empty;
          last_dump_at = options.clock ();
          sighup = Atomic.make false;
          sigterm = Atomic.make false;
        }
      in
      match Source.of_path ~metrics:t.metrics.ingest options.source with
      | Error m -> Error (Source_error m)
      | Ok source -> (
          install_signal_handlers t;
          say "serve: source %s" (Source.describe source);
          (* become Running before the control socket opens, so the
             first health probe can never observe Starting *)
          with_lock t.control (fun () ->
              transition t.control Lifecycle.Ready;
              Condition.broadcast t.control.cond);
          Obs.Registry.set_gauge t.metrics.generation 1.;
          say "serve: generation 1 serving";
          let httpd =
            match options.listen with
            | None -> Ok None
            | Some listen -> (
                match Httpd.start listen (handler t) with
                | Ok h -> Ok (Some h)
                | Error m -> Error m)
          in
          match httpd with
          | Error m ->
              Source.close source;
              Error (Socket_error m)
          | Ok httpd ->
              (match httpd with
              | Some h -> say "serve: control socket %s" (Httpd.address h)
              | None -> ());
              let rec epochs () =
                let serving =
                  with_lock t.control (fun () ->
                      Lifecycle.can_serve t.control.state)
                in
                if serving then begin
                  let epoch_exit = ref None in
                  let next = feeder t source ~epoch_exit in
                  Obs.Registry.incr t.metrics.epochs;
                  let snap =
                    Parallel.process_seq_snapshot ?domains:options.domains
                      ~clock:options.clock t.config
                      (Seq.of_dispenser next)
                      (fun alerts ->
                        List.iter (fun a -> say "%s" (Alert.to_line a)) alerts)
                  in
                  t.cumulative <- Obs.Snapshot.merge t.cumulative snap;
                  match !epoch_exit with
                  | Some (Swap candidate) ->
                      t.config <- candidate;
                      let gen =
                        with_lock t.control (fun () ->
                            transition t.control Lifecycle.Reload_applied;
                            let g = Lifecycle.generation t.control.state in
                            t.control.attempts <- t.control.attempts + 1;
                            t.control.last_outcome <- Some (Applied g);
                            Condition.broadcast t.control.cond;
                            g)
                      in
                      Obs.Registry.incr t.metrics.reload_applied;
                      Obs.Registry.set_gauge t.metrics.generation (float_of_int gen);
                      say "serve: generation %d serving" gen;
                      epochs ()
                  | Some Drain -> ()
                  | Some Exhausted ->
                      with_lock t.control (fun () ->
                          transition t.control Lifecycle.Drain_request;
                          Condition.broadcast t.control.cond);
                      say "serve: source exhausted, draining"
                  | None ->
                      (* the source ended the Seq without setting a
                         reason — treat as exhausted *)
                      with_lock t.control (fun () ->
                          transition t.control Lifecycle.Drain_request;
                          Condition.broadcast t.control.cond)
                end
              in
              epochs ();
              let balanced = reconcile t in
              dump_snapshot t ~final:true;
              with_lock t.control (fun () ->
                  transition t.control Lifecycle.Drained;
                  Condition.broadcast t.control.cond);
              say "serve: stopped generation=%d"
                (Lifecycle.generation t.control.state);
              (match httpd with Some h -> Httpd.stop h | None -> ());
              Source.close source;
              if balanced then Ok () else Error Reconciliation_mismatch))
