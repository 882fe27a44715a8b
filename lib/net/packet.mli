(** The NIDS's packet view: a timestamped, parsed IPv4 packet.

    [build_*] produce the view and {!to_bytes} its raw IPv4 datagram
    (as stored in traces), with valid checksums.  The one way back from
    bytes is [Sanids_ingest.Ingest.decode_record]: link layer, IPv4,
    then TCP/UDP, with typed errors for corrupt datagrams.  Its payloads
    are views into the capture buffer, so a packet that outlives that
    buffer pins it — long-lived state should materialize
    ({!Slice.to_string}) what it keeps. *)

type l4 =
  | Tcp_seg of Tcp.t
  | Udp_dgram of Udp.t
  | Raw of int * Slice.t  (** other protocol: number and payload *)

type t = {
  ts : float;  (** seconds since trace start *)
  ip : Ipv4.t;
  l4 : l4;
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
(** TCP packet carrying the given payload; defaults: PSH+ACK, ttl 64. *)

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

val to_bytes : t -> string
(** Raw IPv4 datagram. *)

val src : t -> Ipaddr.t
val dst : t -> Ipaddr.t

val ports : t -> (int * int) option
(** (src_port, dst_port) for TCP/UDP. *)

val payload : t -> Slice.t
(** Application payload view (the raw IP payload for [Raw]). *)

val payload_string : t -> string
(** [Slice.to_string (payload t)] — free when the payload is a whole
    view, one copy otherwise. *)

val is_tcp : t -> bool
