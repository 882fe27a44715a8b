(** Log-scale latency histogram.

    Durations are integer nanoseconds, bucketed by bit count: bucket [i]
    counts observations in [[2^(i-1), 2^i)] ns, with 0 and 1 ns in
    bucket 0, 64 buckets in a fixed array.  Recording is integer work —
    a bit count, a bucket increment and an integer sum — with no
    allocation; merging two histograms is bucket-wise addition, which is
    what makes per-domain registries combine exactly
    ({!Snapshot.merge}).

    A histogram value is mutable and single-domain; {!snap} takes an
    immutable copy safe to ship across domains. *)

type t
(** A live (mutable) histogram. *)

type snap = {
  counts : int array;  (** per-bucket observation counts, [nbuckets] long *)
  sum : float;
      (** sum of observed durations, seconds: the live integer
          nanosecond sum over [1e9] *)
  total : int;  (** total observations *)
}
(** An immutable snapshot. *)

val nbuckets : int

val create : unit -> t

val observe_ns : t -> int -> unit
(** [observe_ns t ns] records one duration of [ns] nanoseconds.  A
    negative input is clamped to zero rather than dropped, so counts
    always balance. *)

val observe : t -> float -> unit
(** [observe t seconds] records one duration, rounded to the nearest
    nanosecond.  Negative and NaN inputs are clamped to zero, inputs
    past [max_int] ns to [max_int]. *)

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

val bucket_of_ns : int -> int
(** The bucket [observe_ns] puts a duration in: its bit count, and 0
    for at most 1 ns. *)

val bucket_of_seconds : float -> int
(** [bucket_of_ns] of the duration rounded to nanoseconds, as
    {!observe} rounds it. *)

val pp_duration : Format.formatter -> float -> unit
(** Human rendering with an adaptive unit (ns/us/ms/s). *)
