(** Ethernet II framing, for captures taken at the link layer.

    Encoding only: a captured frame is read by offset in
    [Sanids_ingest.Ingest.decode_record] (ethertype at byte 12, the
    datagram from byte 14), which copies neither address. *)

type mac
(** A 48-bit hardware address. *)

val mac_of_string : string -> mac
(** ["aa:bb:cc:dd:ee:ff"].  @raise Invalid_argument on malformed input. *)

val mac_of_string_opt : string -> mac option
(** Non-raising {!mac_of_string}: six colon-separated two-digit hex
    octets, or [None]. *)

val mac_to_string : mac -> string
val mac_broadcast : mac
val mac_equal : mac -> mac -> bool

val ethertype_ipv4 : int

type t = { dst : mac; src : mac; ethertype : int; payload : Slice.t }

val encode : t -> string

val wrap_ipv4 : ?src:mac -> ?dst:mac -> string -> string
(** Frame an IPv4 datagram with default locally administered
    addresses. *)
