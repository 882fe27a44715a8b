(** One federated sensor: the serve engine plus a shipping sidecar.

    [sanids sensor] runs the ordinary {!Sanids_serve.Serve} engine over
    its traffic shard and attaches to the engine's [on_delta] hook: every
    periodic snapshot delta is journaled to the {!Spool}, queued, and
    shipped to the aggregator as a [POST /-/delta] with
    [(sensor, epoch, seq)] identity in the payload header.  Shipping is
    at-least-once: a delta leaves the queue (and the spool) only on an
    aggregator ack, every retry edge runs on the shared {!Backoff}
    policy, and re-sends are harmless because the aggregator's
    {!Dedup} layer is idempotent.

    Crash recovery falls out of the spool: on start the sensor bumps
    its epoch and re-queues every journaled-but-unacked delta from
    prior incarnations ahead of new traffic, so a SIGKILLed sensor
    respawned over the same spool directory loses nothing and can
    never collide with its old sequence numbers.  A journaled entry
    that no longer decodes (one written in an older wire format) would
    be rejected on every retry and hold up the queue behind it, so the
    replay drops it and reports [dropped=N undecodable spool entries].

    Liveness: when the channel has been quiet for [heartbeat_every]
    seconds the sender posts a heartbeat so the aggregator's failure
    detector keeps the sensor [Alive] through lulls in traffic.

    Gauges are stripped from shipped deltas — they are level signals,
    not interval-additive, and the cluster view is a sum.  All-zero
    deltas are skipped (heartbeats cover liveness); sequence numbers
    count shipped deltas only. *)

type options = {
  sensor_id : string;  (** {!Delta.valid_sensor_id} *)
  aggregator : Sanids_serve.Httpd.listen;
  spool_dir : string;  (** crash journal; also holds the epoch *)
  serve : Sanids_serve.Serve.options;
      (** engine options; [snapshot_every] and [on_delta] are
          overridden by the sensor *)
  ship_every : float;  (** seconds between delta cuts *)
  backoff : Backoff.t;  (** retry policy for every channel edge *)
  connect_timeout : float;
      (** seconds to reach the aggregator at startup before giving up *)
  heartbeat_every : float;  (** quiet-channel heartbeat; [<= 0.] disables *)
  channel_fault : Fault.t;  (** test-only delivery faults; [[]] in production *)
  fault_seed : int64;
  flush_timeout : float option;
      (** how long the post-drain flush may chase acks; [None] waits
          forever (journaled deltas survive a kill either way) *)
}

type error =
  | Invalid_id of string
  | Unreachable of string  (** aggregator probe failed — [EX_UNAVAILABLE] *)
  | Spool_error of string
  | Serve_error of Sanids_serve.Serve.error
  | Flush_timeout of int  (** drain flush gave up with [n] deltas spooled *)

val error_to_string : error -> string

val run : options -> (unit, error) result
(** Probe the aggregator, open the spool, replay pending deltas, run
    the engine to drain, then flush the queue.  Prints [sensor <id>:]
    progress lines alongside the engine's [serve:] lines. *)
