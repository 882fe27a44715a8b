(** The idempotent apply layer in front of {!Sanids_obs.Snapshot.merge}.

    At-least-once shipping means the aggregation channel presents each
    delta one {e or more} times, in any order.  Because snapshot merge
    is a commutative monoid (the qcheck-verified law from the obs
    core), order never matters — the only thing that can corrupt the
    cluster view is applying the same delta twice.  This module is
    that guard: a pure map of per-[(sensor, epoch)] applied sequence
    sets, folded over incoming deltas.  The qcheck property in
    [test_cluster] states the contract precisely: for any faulted
    delivery (drops-with-retry, duplicates, reorderings) of a delta
    stream, folding through {!apply} yields a view {e equal} to the
    lossless merge — exact, not eventually close.

    The state is immutable; the aggregator holds it in a mutex'd ref,
    and tests fold over it freely. *)

type t

val empty : t

type outcome =
  | Fresh  (** first sighting — merged into the view *)
  | Duplicate  (** already applied — ignored, but still acked *)

val apply : t -> Delta.t -> t * outcome
(** Idempotent: applying any delta a second time returns the state
    unchanged and [Duplicate].  Epochs need not arrive in order. *)

val view : t -> Sanids_obs.Snapshot.t
(** The cluster view: every sensor's applied deltas, merged. *)

val sensors : t -> string list
(** Sensor ids ever heard from, sorted. *)

type stats = {
  epochs : int;  (** distinct epochs heard from this sensor *)
  applied : int;  (** fresh deltas merged *)
  duplicates : int;  (** redeliveries discarded *)
  last_epoch : int;
  last_seq : int;  (** highest seq applied within [last_epoch] *)
}

val stats : t -> string -> stats option
