(** Immutable zero-copy byte views: a backing string plus an offset and a
    length.

    The decode chain threads these through the hot path — pcap record
    bodies, IP/TCP/UDP payloads, extracted frames — so a packet's bytes
    are copied when the capture buffer is read and then never again.
    {!sub} is an O(1) re-view; {!to_string} is the one explicit
    materialization point (and is itself free for whole-string views).

    A slice pins its backing string: long-lived state must materialize
    ({!to_string}) rather than store views, or a 64-byte segment keeps a
    whole capture file alive. *)

type t

val of_string : string -> t
(** Whole-string view; O(1), no copy. *)

val empty : t

val base : t -> string
(** The backing string (for interop with string-consuming code that
    carries its own offsets — prefer {!to_string} otherwise). *)

val offset : t -> int
(** Start of the view within {!base}. *)

val length : t -> int
val is_empty : t -> bool

val get : t -> int -> char
(** @raise Invalid_argument out of bounds; index is view-relative. *)

val unsafe_get : t -> int -> char
(** No bounds check — for scanners that maintain their own loop bound. *)

val get_u8 : t -> int -> int

val get_u16_be : t -> int -> int

val get_u32_be_int : t -> int -> int
(** The big-endian 32-bit word at the index, as a non-negative [int]. *)

val get_u32_le_int : t -> int -> int

val sub : t -> off:int -> len:int -> t
(** O(1) re-view of a sub-range; shares the backing string.
    @raise Invalid_argument when the range exceeds the view. *)

val of_sub : string -> off:int -> len:int -> t
(** [sub (of_string s) ~off ~len] without the whole-string view: how a
    packet hands out its payload.
    @raise Invalid_argument when the range exceeds [s]. *)

val to_string : t -> string
(** Materialize the viewed bytes.  A view covering its whole backing
    string returns that string without copying, so wrapping an existing
    string with {!of_string} and reading it back is free. *)

val equal : t -> t -> bool
(** Byte-content equality, independent of view position. *)

val equal_string : t -> string -> bool
