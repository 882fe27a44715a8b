(** Snapshot exposition: Prometheus text format and JSONL metric
    records, and the reader of those records.

    Both renderings are deterministic — metrics in name order,
    histogram buckets in ascending [le] order — so exports over seeded
    workloads diff cleanly.  Every float prints through
    {!Sanids_util.Spec.float_to_string}, so it reads back to its bits. *)

val to_prometheus : ?help:(string -> string option) -> Snapshot.t -> string
(** Prometheus text exposition (version 0.0.4): [# TYPE] (and [# HELP]
    when [help] yields one) per metric family; histograms as cumulative
    [_bucket{le="..."}] series plus [_sum]/[_count].  Empty buckets are
    elided; the [+Inf] bucket is always present.  Labeled counter
    series ([name{reason="..."}]) render under a single [# TYPE] header
    for their base name. *)

val records : Snapshot.t -> Sanids_util.Json.t list
(** The one serialised form of a snapshot, one exact record per metric:
    [{"metric","type","value"}] for a counter or gauge, and
    [{"metric","type","count","sum","buckets"}] with an
    [[upper_bound, count]] per non-empty bucket for a histogram.  A
    non-finite value is the string ["inf"], ["-inf"] or ["nan"]. *)

val of_records : Sanids_util.Json.t list -> (Snapshot.t, string) result
(** The inverse of {!records} (a [nan] loses its payload), merged in
    order.  Never raises: an unknown type, a mistyped field, a bucket
    bound that is no {!Histogram.bucket_upper}, a bucket count below 1,
    a [count] other than the bucket sum and one series with two kinds
    are each an [Error] naming the metric. *)

val to_jsonl : Snapshot.t -> string
(** One of {!records} per line; {!of_records} reads the lines back,
    and over a file of appended dumps returns their merge. *)
