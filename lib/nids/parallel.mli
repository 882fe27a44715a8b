(** Multicore bulk processing (OCaml 5 domains).

    Every piece of classifier state — honeypot marks, scan counters,
    flow reassembly — is keyed by source address, so sharding traffic by
    source across worker domains preserves verdicts exactly: each worker
    runs an ordinary single-threaded {!Pipeline} over its shard and never
    shares mutable state.  This is the standard NIDS scaling design
    (per-flow hashing at the tap), and it is what lets the false-positive
    experiment chew through month-scale corpora.

    Observability follows the same design: each worker domain owns its
    pipeline's metrics registry, and per-domain snapshots are combined
    with {!Sanids_obs.Snapshot.merge} — a commutative monoid, so the
    merged counters are exactly the sums regardless of sharding.  The
    test suite checks shard-equivalence (alerts {e and} counters)
    against the sequential pipeline; the bench harness measures the
    speedup. *)

val shard_of : Ipaddr.t -> shards:int -> int
(** The worker index a source address maps to. *)

val shard_of_packet : Config.t -> Packet.t -> shards:int -> int
(** The sharding the configuration admits: with classification enabled
    the classifier keeps per-source state (honeypot marks, scan
    counters), so verdict equivalence requires {!shard_of} on the
    source; with it disabled the pipeline's state is per-flow and the
    packet's flow 5-tuple picks the worker (packets with no flow key
    fall back to the source), which spreads a single-source outbreak
    across workers.  {!process_seq_snapshot}, and so
    {!process_snapshot}, routes through this. *)

val process_snapshot :
  ?domains:int -> Config.t -> Packet.t list -> Alert.t list * Sanids_obs.Snapshot.t
(** {!process_seq_snapshot} over the list, collecting the alerts: a
    batch across [domains] workers (default:
    [Domain.recommended_domain_count ()], capped at 8).  Each worker's
    alerts keep arrival order, but workers interleave, so compare alert
    sets, not sequences.  Admission follows the configuration's stream
    queue: under the default [Block] policy nothing is shed. *)

val process :
  ?domains:int -> Config.t -> Packet.t list -> Alert.t list * Stats.t
(** {!process_snapshot} with the snapshot projected through
    {!Stats.of_snapshot}. *)

val process_seq_snapshot :
  ?domains:int -> ?batch:int -> ?clock:(unit -> float) -> Config.t ->
  Packet.t Seq.t -> (Alert.t list -> unit) -> Sanids_obs.Snapshot.t
(** Stream mode with load shedding and crash isolation.  Each worker
    domain owns a persistent pipeline (classifier state survives the
    whole stream) behind a bounded admission queue
    ([Config.stream_queue_capacity] deep); the feeder routes each packet
    to its source shard and the queue's [Config.stream_drop_policy]
    decides what a full queue does — [Block] (the default) applies
    backpressure and loses nothing, the drop policies shed and count
    each loss as [sanids_shed_total{policy}].  Workers drain in chunks
    of at most [batch] (default 8192) and invoke the callback with each
    chunk's alerts (callback invocations are serialized, from worker
    domains).  A packet whose analysis raises is abandoned and counted
    as [sanids_worker_failures_total] — the worker and its shard keep
    going, so a poisoned packet yields degraded (partial) results, not
    a crash.  The returned snapshot merges every worker registry plus
    the feeder's admission counters, so
    [packets + shed + worker_failures] accounts for every admitted
    packet.

    [clock] (default [Unix.gettimeofday]) is the time source behind the
    worker heartbeats and the watchdog's stall polling — the serve
    supervisor and the watchdog tests inject a deterministic clock here
    so stall decisions are reproducible.

    When [Config.analysis_budget] carries a wall-clock deadline, a
    watchdog domain guards against workers that wedge {e despite} the
    budget (the budget is cooperative): a worker busy on one packet for
    [max (8 * deadline) 0.05] seconds is abandoned and a fresh worker
    is respawned on the same queue ([sanids_worker_restarts_total]),
    with exponential backoff and a bounded respawn count per shard
    ({!Watchdog}); an exhausted shard's queue is closed so admission
    degrades to counted shedding.  A retired worker finishes the chunk
    it already popped — every popped packet is processed exactly once —
    and its partial metrics merge into the final snapshot; a domain
    still wedged at shutdown is leaked rather than waited on forever
    and surfaces as a worker failure. *)

val process_seq :
  ?domains:int -> ?batch:int -> ?clock:(unit -> float) -> Config.t ->
  Packet.t Seq.t -> (Alert.t list -> unit) -> Stats.t
(** {!process_seq_snapshot} projected through {!Stats.of_snapshot}. *)
