(** TCP segment codec (no options on encode; data offset honoured on
    decode).  Checksums use the IPv4 pseudo-header. *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

val flags_syn : flags
val flags_ack : flags
val flags_pshack : flags

val flags_of_byte : int -> flags
(** The flags of a header's flag byte (bits 0–5: FIN, SYN, RST, PSH,
    ACK, URG; higher bits ignored).  The result is one of 64 records
    built at module initialisation, shared by every call. *)

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  payload : Slice.t;
}

val encode : src:Ipaddr.t -> dst:Ipaddr.t -> t -> string
(** Segment bytes with a valid checksum. *)

val decode : src:Ipaddr.t -> dst:Ipaddr.t -> Slice.t -> (t, string) Stdlib.result
(** A wrong checksum is reported as an error. *)
