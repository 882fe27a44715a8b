(** Flow keys and in-order TCP stream reassembly.

    Reassembly is deliberately simple: segments are indexed by sequence
    number relative to the first segment seen on the flow; overlaps keep
    the first writer; the contiguous prefix is the stream.  That is
    enough for single-connection exploit delivery, which is what the
    evaluation exercises. *)

type key = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  src_port : int;
  dst_port : int;
  proto : int;
}

val key_of_packet : Packet.t -> key option
(** [None] for non-TCP/UDP packets. *)

val key_to_string : key -> string

type reassembler

val create_reassembler : ?max_flows:int -> ?max_stream:int -> unit -> reassembler
(** [max_flows] (default 4096) bounds tracked flows (oldest evicted);
    [max_stream] (default 1 MiB) bounds buffered bytes per flow. *)

val push : reassembler -> Packet.t -> string option
(** Feed a packet.  Returns the flow's new contiguous stream prefix when
    it grew, [None] otherwise (non-TCP packets, duplicates, gaps). *)

val flow_count : reassembler -> int
