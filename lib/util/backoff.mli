(** Capped exponential backoff with deterministic jitter.

    One policy object governs every retrying edge in the system — the
    control-plane client's connect loop, the cluster sensor's delta
    shipping, reconnects after an aggregator restart — so "how hard do
    we hammer a struggling peer" is configured (and tested) in exactly
    one place.

    The policy is pure: {!delay} is a function of [(policy, seed,
    attempt)] only, with the jitter drawn from a splitmix stream keyed
    by the pair, so a given sensor replays the identical retry schedule
    run after run — retry storms are reproducible, never heisenbugs.
    Jitter only ever {e shortens} a delay (decorrelating a fleet of
    sensors that all lost the same aggregator) so the un-jittered
    schedule is the worst case and {!delay} never exceeds [cap].

    Spec syntax (the CLI [--backoff] argument):
    ["base=0.05,factor=2,cap=2,jitter=0.5,timeout=5"] — any subset of
    keys over {!default}. *)

type t = {
  base : float;  (** first delay, seconds; > 0 *)
  factor : float;  (** growth per attempt; >= 1 *)
  cap : float;  (** delay ceiling, seconds; >= base *)
  jitter : float;  (** fraction of the delay shaved off, in [0,1] *)
  timeout : float;  (** per-attempt I/O deadline, seconds; > 0 *)
}

val default : t
(** [base=0.05], [factor=2], [cap=2], [jitter=0.5], [timeout=5]. *)

val validate : t -> (t, string) result

val of_string : string -> (t, string) result
(** Parse a spec over {!default}.  [Error] names the offending token. *)

val to_string : t -> string
(** Canonical spec text ([of_string (to_string t) = Ok t]). *)

val delay : t -> seed:int64 -> attempt:int -> float
(** Sleep before retry number [attempt] (0-based): [base * factor^attempt]
    capped at [cap], then shortened by up to [jitter] of itself, the
    shave drawn deterministically from [(seed, attempt)].  Always in
    [[(1-jitter) * capped, capped]]. *)

val retry :
  ?sleep:(float -> unit) ->
  ?clock:(unit -> float) ->
  t ->
  seed:int64 ->
  deadline:float ->
  (attempt:int -> ('a, 'e) result) ->
  ('a, 'e) result
(** Run [f ~attempt:0], [f ~attempt:1], ... sleeping {!delay} between
    attempts, until [f] succeeds or the {e absolute} clock time
    [deadline] would pass before the next attempt; returns the last
    error.  [sleep]/[clock] default to [Unix.sleepf]/[Unix.gettimeofday]
    and exist so tests can drive the schedule without wall time. *)
