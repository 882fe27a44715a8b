(** A byte cursor for the x86 decoder and growable binary writers for
    the encoders.

    Fixed-layout headers (pcap, Ethernet, IPv4, TCP, UDP) are not read
    through a cursor: their decoders check the length once and read
    fields by offset with {!Slice}'s accessors.  The writers come in
    little-endian ([_le]) and big-endian ([_be]) variants; network
    headers use [_be], x86 immediates and pcap headers use [_le]. *)

exception Truncated of string
(** Raised by the reader when fewer bytes remain than requested; the
    payload names the failing accessor. *)

module Reader : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  (** View onto [string] starting at [pos] (default 0) spanning [len]
      bytes (default: to the end).  The string is not copied. *)

  val pos : t -> int
  (** Current cursor, relative to the start of the view. *)

  val is_empty : t -> bool

  val seek : t -> int -> unit
  (** Absolute cursor move within the view.  @raise Invalid_argument when
      out of bounds. *)

  val u8 : t -> int
  val u32_le : t -> int32

  val u32_le_int : t -> int
  (** [u32_le] as a non-negative OCaml [int]. *)
end

module Writer : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16_be : t -> int -> unit
  val u16_le : t -> int -> unit
  val u32_be : t -> int32 -> unit
  val u32_le : t -> int32 -> unit
  val u32_le_int : t -> int -> unit
  val string : t -> string -> unit

  val slice : t -> Slice.t -> unit
  (** Append a slice's bytes (no intermediate string). *)

  val fill : t -> int -> int -> unit
  (** [fill t byte n] appends [n] copies of [byte]. *)

  val contents : t -> string

  val patch_u16_be : t -> int -> int -> unit
  (** [patch_u16_be t off v] rewrites 2 bytes at offset [off] of material
      already written — used to back-patch length and checksum fields. *)
end
