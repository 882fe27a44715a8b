(** The NIDS's packet view: a timestamped, parsed IPv4 packet.

    [build_*] produce raw IPv4 datagram bytes (as stored in traces) and
    [parse] recovers the view.  Encode-side checksums are always valid;
    parse rejects corrupt datagrams. *)

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

val parse : ts:float -> string -> (t, string) Stdlib.result

val parse_slice : ts:float -> Slice.t -> (t, string) Stdlib.result
(** Zero-copy parse: every payload in the result is a view into the
    given slice's backing string.  A packet that outlives the capture
    buffer it was parsed from pins that buffer — long-lived state should
    materialize ({!Slice.to_string}) what it keeps. *)

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
