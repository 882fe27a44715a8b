(** The [sanids serve] daemon engine.

    A serving {e generation} is one {!Parallel.process_seq_snapshot}
    run over the source.  The feeder checks the control plane before
    every packet: a lint-clean reload or a drain ends the epoch, and
    the stream pipeline's ordinary shutdown (close queues, drain
    workers, join) retires the old generation losslessly before the
    next begins.  A {e rejected} reload never ends the epoch — the old
    generation keeps serving, untouched.  See {!Lifecycle} for the
    control protocol and DESIGN.md §5h for the architecture.

    Control surface (over {!Httpd}, when [listen] is set):
    - [GET /metrics] — Prometheus text of the serve registry merged
      with every retired epoch's worker snapshot;
    - [GET /healthz] — lifecycle state and generation;
    - [POST /-/reload] — run the reload gate; blocks until the outcome
      (200 applied / 409 rejected);
    - [POST /-/drain] — graceful shutdown; blocks until [Stopped].

    SIGHUP requests a reload, SIGTERM a drain (when [install_signals]).

    Serve metrics: [sanids_config_generation] (gauge),
    [sanids_reload_total{outcome="applied"|"rejected"}],
    [sanids_serve_epochs_total], plus the ingest family for the
    source's decoding. *)

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
  install_signals : bool;
  on_delta : (Sanids_obs.Snapshot.t -> unit) option;
      (** observer of every periodic {!Sanids_obs.Snapshot.diff} delta
          (cadenced by [snapshot_every], plus one final delta at
          drain).  This is the hook the cluster sensor ships through:
          the same interval deltas the JSONL dump writes, delivered
          in-process.  Runs on the feeder thread — keep it cheap and
          non-blocking (hand off to a queue). *)
}

val default_options : options
(** [source = ""] (caller must set), [Config.default] base, no files,
    no listener, dumps off, 20 ms poll, [Unix.gettimeofday], signals
    installed, no delta observer. *)

val reload_candidate :
  base:Config.t ->
  config_file:string option ->
  rules_file:string option ->
  (Config.t, string) result
(** The reload gate, callable without a daemon: rebuild the candidate
    ([Config.of_file] applied to [base]) and lint it ({!Config.lint},
    {!Sanids_staticlint.Lint.templates} over its templates,
    {!Sanids_staticlint.Lint.rules_text} when a rules file is given).
    Any error-severity finding — or an unreadable/unparsable file —
    rejects with a one-line reason.  [run] uses exactly this at
    startup and on every reload request, so a dirty config can neither
    start the daemon nor displace a clean generation. *)

val reconciliation : Sanids_obs.Snapshot.t -> string * bool
(** The drain accounting identity over one snapshot: every ingest
    record is a verdict, a typed error, shed, or lost with a failed
    worker.  Returns the counts as
    ["records=R verdicts=V errors=E shed=S failed=F reconciled"]
    ([MISMATCH] in place of [reconciled] when [R <> V + E + S + F]) and
    whether it balanced. *)

type error =
  | Config_rejected of string  (** startup gate failed — never served *)
  | Source_error of string
  | Socket_error of string
  | Reconciliation_mismatch
      (** the drain accounting identity did not balance *)

val error_to_string : error -> string

val run : options -> (unit, error) result
(** Run to completion: serve until the source is exhausted or a drain
    arrives, then flush queues, join workers, print the
    reconciliation line ([records = verdicts + errors + shed + failed])
    and stop. *)
