(** Log-scale latency histogram.

    Durations are bucketed by octave in nanoseconds: bucket [i] counts
    observations in [[2^(i-1), 2^i)] ns, 64 buckets in a fixed array.
    Recording is O(1) with no allocation; merging two histograms is
    bucket-wise addition, which is what makes per-domain registries
    combine exactly ({!Snapshot.merge}).

    A histogram value is mutable and single-domain; {!snap} takes an
    immutable copy safe to ship across domains. *)

type t
(** A live (mutable) histogram. *)

type snap = {
  counts : int array;  (** per-bucket observation counts, [nbuckets] long *)
  sum : float;  (** exact sum of observed durations, seconds *)
  total : int;  (** total observations *)
}
(** An immutable snapshot. *)

val nbuckets : int

val create : unit -> t

val observe : t -> float -> unit
(** [observe t seconds] records one duration.  Negative and NaN inputs
    are clamped to zero rather than dropped, so counts always balance. *)

val reset : t -> unit

val snap : t -> snap
val empty_snap : snap

val merge : snap -> snap -> snap
(** Bucket-wise sum — associative and commutative with {!empty_snap} as
    identity. *)

val count : snap -> int
val sum : snap -> float
val mean : snap -> float

val quantile : snap -> float -> float
(** [quantile s q] is an upper bound (in seconds) on the [q]-quantile:
    the upper edge of the bucket holding the rank-[q] observation, an
    over-estimate by at most one octave.  [0.] for an empty snapshot. *)

val bucket_upper : int -> float
(** Upper bound of bucket [i], in seconds (used by the Prometheus
    exporter's [le] labels). *)

val bucket_of_seconds : float -> int

val pp_duration : Format.formatter -> float -> unit
(** Human rendering with an adaptive unit (ns/us/ms/s). *)
