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

    The wire form is one compact JSON object,
    [{"delta":2,"sensor":…,"epoch":…,"seq":…,"metrics":[…]}], whose
    metrics are the exact {!Sanids_obs.Export.records} of the serve
    engine's JSONL dump, so a delta round-trips bit for bit.  Nothing
    follows the closing brace, so a truncated body fails {!decode}, the
    sensor never gets an ack, and simply ships it again. *)

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
(** Inverse of {!encode}.  Never raises: a truncated document, another
    version, an invalid sensor id, a negative epoch or seq, or metrics
    that {!Sanids_obs.Export.of_records} rejects are an [Error] with a
    one-line reason. *)
