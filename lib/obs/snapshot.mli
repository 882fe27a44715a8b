(** Immutable metric snapshots — the unit of cross-domain aggregation.

    A snapshot maps metric names to values.  {!merge} is a commutative
    monoid with {!empty} as identity: counters and gauges add, histograms
    add bucket-wise.  That law (checked by qcheck in the test suite) is
    what makes per-worker-domain registries combine exactly: summing the
    snapshots of N sharded pipelines yields the same counters as one
    sequential pipeline over the same traffic. *)

type value =
  | Counter of int
  | Gauge of float
  | Hist of Histogram.snap

type t

val empty : t

val merge : t -> t -> t
(** Point-wise monoid merge.
    @raise Invalid_argument if the two snapshots bind the same name to
    different metric kinds. *)

val diff : newer:t -> older:t -> t
(** Interval delta between two cumulative snapshots of the same source
    — the rate primitive the serving path's periodic dumps are built
    on.  Counters and histogram buckets subtract clamped at zero (a
    worker respawn or generation swap can make a cumulative series
    regress; a rate must never be negative), gauges keep the newer
    level, and a series only the newer snapshot carries passes through
    unchanged.  Hence every counter in the result is [>= 0] — the
    qcheck-verified no-negative-rates law.
    @raise Invalid_argument if the two snapshots bind the same name to
    different metric kinds. *)

val of_list : (string * value) list -> t
(** Duplicate names are merged (same law as {!merge}). *)

val to_list : t -> (string * value) list
(** Sorted by metric name — exporters rely on this for deterministic
    output. *)

val counter_value : t -> string -> int
(** [0] when absent or not a counter. *)

val base_name : string -> string
(** The metric name of a series name: [base_name {|a_total{reason="x"}|}]
    is ["a_total"]; unlabeled names map to themselves. *)

val counter_sum : t -> string -> int
(** [counter_sum t base] sums every counter series whose {!base_name} is
    [base] — the total of a labeled family ([0] when none exist). *)

val gauge_value : t -> string -> float
val histogram : t -> string -> Histogram.snap

val equal : t -> t -> bool
