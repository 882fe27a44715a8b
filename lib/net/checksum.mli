(** RFC 1071 internet checksum: one running sum over a slice or a
    range of a string, plus the TCP/UDP pseudo-header as one arithmetic
    term.

    The sum reads eight bytes per step (one unaligned big-endian 64-bit
    load, its two 32-bit halves added into a 63-bit accumulator), then
    16-bit words, then the odd byte, and folds the end-around carry
    once at the end. *)

val ones_complement : int -> Slice.t -> int
(** [ones_complement acc s] is the checksum over [s]'s bytes (an odd
    length is zero-padded), with [acc] — [0], or a {!pseudo_header}
    term — added into the sum.  It is [0] over bytes whose checksum
    field is correct, which is how every decoder verifies.  [s] is
    summed as if it started at an even offset of its datagram,
    whatever its offset in the backing string. *)

val ones_complement_sub : int -> string -> off:int -> len:int -> int
(** [ones_complement_sub acc s ~off ~len] is
    [ones_complement acc (Slice.sub (Slice.of_string s) ~off ~len)]
    without building a view: how the packet decoder verifies each
    header where it sits in the record's backing string.
    @raise Invalid_argument when the range is not within [s]. *)

val pseudo_header : src:int -> dst:int -> proto:int -> len:int -> int
(** The IPv4 pseudo-header's contribution to the sum: the 16-bit halves
    of the 32-bit addresses [src] and [dst] (as {!Ipaddr.to_int} gives
    them, or as read from a header), plus [proto] and [len] — the same
    total as summing the 12 bytes it stands for, without building
    them. *)
