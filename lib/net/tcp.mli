(** TCP control flags, as {!Packet.build_tcp} takes them.  A decoded
    segment keeps its flag byte as it sits in the header
    ([Packet.flags]). *)

type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

val flags_syn : flags
val flags_ack : flags
val flags_pshack : flags

val flags_byte : flags -> int
(** The header's flag byte: bits 0–5 are FIN, SYN, RST, PSH, ACK, URG. *)
