(** The NIDS's packet: a timestamped IPv4 datagram, held as offsets into
    the bytes it was read from.

    A packet is one immutable record: the backing string, where the
    IPv4 header, the TCP/UDP header and the payload start in it, the
    payload's length, the protocol and the TCP flag byte.  Addresses,
    ports and the sequence number are read from the header bytes when
    asked for, and the payload view is built when asked for.  Only this
    module makes packets, so those offsets always lie within a datagram
    whose headers passed {!decode}'s checks (or that {!build_tcp} /
    {!build_udp} encoded).

    The one way from capture bytes is [Sanids_ingest.Ingest.decode_record]
    (link layer, then {!decode}).  A decoded packet is a view of the
    capture buffer, so a packet that outlives that buffer pins it —
    long-lived state should materialize ({!payload_string}) what it
    keeps. *)

type t = private {
  ts : float;  (** seconds since trace start *)
  base : string;  (** the bytes the packet is a view of *)
  ip_off : int;  (** the IPv4 header's first byte in [base] *)
  l4_off : int;  (** the IP payload's: the TCP/UDP header, if any *)
  payload_off : int;  (** the application payload's *)
  payload_len : int;
  proto : int;  (** the IPv4 protocol number *)
  flags : int;  (** the TCP flag byte as sent; [0] for other protocols *)
}

val build_tcp :
  ts:float ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  src_port:int ->
  dst_port:int ->
  ?seq:int32 ->
  ?ack_no:int32 ->
  ?flags:Tcp.flags ->
  ?ttl:int ->
  ?ident:int ->
  string ->
  t
(** TCP packet carrying the given payload; defaults: seq 1000, PSH+ACK,
    window 65535, ttl 64.  The datagram (20-byte IPv4 header, don't
    fragment; 20-byte TCP header) is encoded once, with valid
    checksums. *)

val build_udp :
  ts:float ->
  src:Ipaddr.t ->
  dst:Ipaddr.t ->
  src_port:int ->
  dst_port:int ->
  ?ttl:int ->
  ?ident:int ->
  string ->
  t

type error = Ipv4_header of string | Tcp_segment of string | Udp_datagram of string
(** The layer that rejected the datagram, and the defect. *)

val decode : ts:float -> Slice.t -> off:int -> (t, error) result
(** [decode ~ts s ~off] checks the IPv4 datagram from byte [off] of [s]
    in place and returns its packet, allocating only that record and
    its [Ok].  IPv4: version 4, IHL at least 20 and present, total
    length within [s] (trailing bytes ignored), header checksum.  TCP:
    at least 20 bytes, data offset, checksum over the pseudo-header and
    the segment.  UDP: at least 8 bytes, length field, checksum unless
    its field is 0.  Any other protocol is a packet whose payload is the
    IP payload.  The error detail names the defect ("bad IHL",
    "bad checksum", ...).
    @raise Invalid_argument when [off] is not within [s]. *)

val to_bytes : t -> string
(** The IPv4 datagram.  A built packet's is its backing string, not a
    copy. *)

val src : t -> Ipaddr.t
val dst : t -> Ipaddr.t
val proto : t -> int
val is_tcp : t -> bool
val is_udp : t -> bool

val ports : t -> (int * int) option
(** (src_port, dst_port) for TCP/UDP. *)

val seq : t -> int
(** The TCP sequence number, in [\[0, 2{^32})]; [0] for other
    protocols. *)

val payload_length : t -> int

val payload : t -> Slice.t
(** Application payload view (the IP payload for protocols other than
    TCP and UDP), built on each call. *)

val payload_string : t -> string
(** The payload's bytes, copied. *)
