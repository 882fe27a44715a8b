(** The unit of federation: one snapshot delta from one sensor.

    A delta is an interval {!Sanids_obs.Snapshot.diff} cut by a
    sensor's serve engine, stamped with the at-least-once delivery
    header [(sensor, epoch, seq)]: [sensor] names the sensor for the
    cluster's per-sensor accounting, [epoch] counts the sensor's
    process incarnations (bumped by the spool on every start, so a
    crashed-and-respawned sensor can replay journalled deltas without
    colliding with its new stream), and [seq] numbers deltas within an
    epoch.  The aggregator treats the triple as the identity of the
    delta: applying it twice is detected and ignored, which is what
    turns at-least-once delivery into an exact cluster view.

    The wire form is a line-oriented text document (version-tagged,
    self-delimiting via a metric count) rather than the Prometheus
    exposition format, because it must round-trip {e exactly}:
    counters, gauges and full histogram bucket arrays, float-precise.
    A truncated or bit-damaged body fails {!decode} — the sensor never
    gets an ack and simply ships it again. *)

type t = {
  sensor : string;
  epoch : int;
  seq : int;
  snapshot : Sanids_obs.Snapshot.t;
}

val valid_sensor_id : string -> bool
(** Sensor names are DNS-label-ish: nonempty, [[A-Za-z0-9_.-]+], at
    most 64 bytes — they appear inside metric label values and file
    names. *)

val encode : t -> string
(** The wire document.  Deterministic: equal deltas encode equal. *)

val decode : string -> (t, string) result
(** Inverse of {!encode}; rejects version mismatches, malformed lines,
    header/metric-count inconsistencies (the truncation detector) and
    invalid sensor ids, with a one-line reason. *)
