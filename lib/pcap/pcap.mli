(** Classic pcap capture file format (the libpcap substitute).

    We read and write the 24-byte global header plus per-record headers,
    little- or big-endian, microsecond or nanosecond magic.  This module
    only frames records: a record body becomes a packet through
    [Sanids_ingest.Ingest.decode_record], per the file's link type —
    [LINKTYPE_RAW] (101), where each body is a raw IPv4 datagram (what
    {!Packet.to_bytes} produces), or [LINKTYPE_ETHERNET] (1). *)

type record = { ts : float; orig_len : int; data : Slice.t }
(** [data] is a view: decoding a capture yields record bodies that alias
    the capture string instead of copying it record by record. *)

type file = { nanos : bool; linktype : int; records : record list }

val linktype_raw : int
val linktype_ethernet : int

(** {2 Header parsers}

    One pair of parsers frames every capture: {!decode} over a whole
    string, and the follow-mode FIFO source ({!Sanids_ingest.Source})
    as bytes arrive.  Neither raises; [Error] carries the fault. *)

type meta = { le : bool; nanos : bool; file_linktype : int }
(** The global header's framing facts: byte order, timestamp scale,
    link type. *)

type record_header = { r_ts : float; incl_len : int; r_orig_len : int }

val global_header_len : int
(** 24. *)

val record_header_len : int
(** 16. *)

val decode_global_header : Slice.t -> (meta, string) result
(** Parse a capture's first {!global_header_len} bytes (longer input is
    fine; only the header is read): ["short global header"] or
    ["bad magic"] on failure. *)

val decode_record_header : meta -> Slice.t -> (record_header, string) result
(** Parse one {!record_header_len}-byte per-record header (longer input
    is fine); the record body is the next [incl_len] bytes on the wire.
    ["truncated record header"] when fewer bytes are given. *)

val encode : ?nanos:bool -> ?linktype:int -> record list -> string
(** Serialize a capture (little-endian). *)

val decode : string -> (file, string) Stdlib.result
(** Frame a whole capture with the header parsers above; [Error] names
    the framing fault (short global header, bad magic, truncated record
    header/body).  No exception escapes it. *)

val of_packets : Packet.t list -> record list
(** Records from parsed packets (snap = full length). *)

val of_packets_ethernet : Packet.t list -> record list
(** Records with Ethernet II framing ([LINKTYPE_ETHERNET]); pair with
    [encode ~linktype:linktype_ethernet]. *)
