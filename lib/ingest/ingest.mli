(** Resilient capture ingest: the typed error boundary between raw,
    adversarial bytes and the analysis pipeline.

    The front end of the NIDS sits directly on attacker-controlled
    input, so a malformed header or truncated record must degrade into
    a counted, typed error — never an exception that can crash the
    sensor.  Every decode entry point here returns a [result]; {!error}
    names the layer that rejected the bytes, and when a {!metrics}
    handle is supplied each failure is counted per-reason in the obs
    registry as [sanids_ingest_errors_total{reason="..."}] (with
    attempts in [sanids_ingest_records_total]), which is what makes the
    stream-mode accounting identity auditable:

    [records_in = packets_out + Σ ingest_errors{reason}].

    This is the one way from capture bytes to {!Packet.t}:
    [Sanids_pcap.Pcap.decode] frames the records (or the FIFO source
    frames them as they arrive, with the same header parsers), and
    {!decode_record} reads each body's link layer, then hands the
    datagram to {!Packet.decode}, which checks IPv4 and TCP/UDP where
    the bytes sit.  Every caller — [scan], [sig-scan], [serve], the
    benches and the examples — goes through it.

    Fault injection for exercising this boundary lives in {!Fault}. *)

type error =
  | Pcap_framing of string  (** bad magic, truncated record header/body *)
  | Link_layer of string  (** short Ethernet frame, non-IPv4 ethertype,
                              unsupported linktype *)
  | Ipv4_header of string
  | Tcp_segment of string
  | Udp_datagram of string
  | Payload_bound of string  (** datagram larger than the admission bound *)

val reason : error -> string
(** The metric label value: ["pcap_framing"], ["link_layer"], ["ipv4"],
    ["tcp"], ["udp"], ["payload_bound"]. *)

val reasons : string list
(** Every {!reason} value, in declaration order — each is pre-registered
    by {!metrics} so exported snapshots always carry the full family. *)

val error_to_string : error -> string

val records_total : string
(** ["sanids_ingest_records_total"] — decode attempts. *)

val errors_total : string
(** ["sanids_ingest_errors_total"] — the labeled error family's base
    name; use with {!Sanids_obs.Snapshot.counter_sum}. *)

type metrics
(** Per-reason counters resolved against one registry. *)

val metrics : Sanids_obs.Registry.t -> metrics

val count_error : metrics -> error -> unit
(** Count one failure under its reason (records_total is {e not}
    bumped — use this only for failures observed outside the decode
    entry points below, which count themselves). *)

val decode_file : ?metrics:metrics -> string -> (Sanids_pcap.Pcap.file, error) result
(** Typed {!Sanids_pcap.Pcap.decode}: global-header and record-framing
    faults come back as [Pcap_framing].  No exception escapes. *)

val decode_record :
  ?metrics:metrics ->
  ?max_payload:int ->
  linktype:int ->
  Sanids_pcap.Pcap.record ->
  (Packet.t, error) result
(** Decode one capture record into a packet: admission bound
    ([max_payload], default 65535 bytes, the IPv4 maximum — a datagram
    longer than that, link header not counted, cannot be one and is
    shed before parsing), link layer (raw IPv4 or Ethernet per
    [linktype]), then {!Packet.decode}'s IPv4 and TCP/UDP checks.  A
    bad TCP or UDP checksum is a [Tcp_segment] or [Udp_datagram] error.
    An accepted record allocates the packet record and its [Ok]; the
    packet is a view of [r]'s bytes.  Counts one record (plus the error,
    if any) when [metrics] is given.  No exception escapes. *)

val admit : ?metrics:metrics -> linktype:int -> int -> bool
(** [admit ~linktype incl_len]: {!decode_record}'s default admission
    bound for a record of [incl_len] bytes, decided before its body is
    read.  A shed
    record ([false]) is counted as {!decode_record} would count it: one
    record, one [payload_bound] error.  An admitted one counts nothing
    here; {!decode_record} counts it. *)

val ok_packets :
  ?metrics:metrics -> ?max_payload:int -> Sanids_pcap.Pcap.file -> Packet.t list
(** {!decode_record} over every record of a capture, keeping the
    successes; failures are only visible in
    the metrics — the "keep running" deployment mode. *)
