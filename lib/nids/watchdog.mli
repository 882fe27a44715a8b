(** Worker-stall watchdog — the pure decision core of the parallel
    driver's self-healing.

    Budgets make a single packet's analysis finite, but they are a
    cooperative mechanism: a bug (or a disabled deadline dimension)
    can still wedge a worker domain inside one packet, and a wedged
    worker silently parks its whole shard.  The watchdog observes each
    worker's heartbeat and decides when to abandon the stalled domain
    and respawn a replacement on the same admission queue — with
    exponential backoff between respawns and a hard cap on how many
    times one slot may be restarted.

    This module is only the state machine: one {!t} per worker slot,
    fed [(now, busy_since)] observations, answering with an {!action}.
    It performs no I/O and reads no clock, so every transition is unit
    testable; {!Parallel} owns the domains, heartbeat cells and
    respawn mechanics. *)

type config = {
  stall_after : float;  (** seconds busy on one packet before a worker counts as stalled *)
  max_restarts : int;  (** respawns allowed per worker slot *)
  backoff : float;
      (** stall threshold multiplier applied after each restart (the
          i-th restart waits [stall_after * backoff^i]) *)
}

val config_for : deadline:float -> config
(** The driver's derivation from a per-packet budget deadline: a worker
    is stalled after [max (8 * deadline) 0.05] seconds — far past the
    point the budget should have stopped the packet — with
    at most 3 restarts and a backoff factor of 2. *)

val validate_config : config -> (config, string) result

type t

val create : config -> t
(** Fresh slot state: no restarts, steady. *)

type action =
  | Steady  (** worker healthy (or a previous restart still unwinding) *)
  | Restart
      (** worker stalled: abandon it and respawn — returned exactly once
          per detected stall *)
  | Exhausted
      (** worker stalled but the restart cap is spent: stop feeding the
          shard instead of respawn-looping *)

val observe : t -> now:float -> busy_since:float option -> action
(** One poll: [busy_since] is the wall-clock time the worker began its
    current packet, [None] when idle.  A stall that began before the
    last restart is the abandoned generation still unwinding and reads
    as [Steady]. *)

val restarts : t -> int
(** Restarts issued so far on this slot. *)

val threshold : t -> float
(** The current stall threshold ([stall_after * backoff^restarts]). *)
