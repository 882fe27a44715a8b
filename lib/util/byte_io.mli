(** Cursor-based binary readers and growable binary writers.

    All multi-byte accessors exist in little-endian ([_le]) and
    big-endian ([_be]) variants; network headers use [_be], x86
    immediates and pcap bodies use [_le]. *)

exception Truncated of string
(** Raised by readers when fewer bytes remain than requested; the payload
    names the failing accessor. *)

module Reader : sig
  type t

  val of_string : ?pos:int -> ?len:int -> string -> t
  (** View onto [string] starting at [pos] (default 0) spanning [len]
      bytes (default: to the end).  The string is not copied. *)

  val of_slice : Slice.t -> t
  (** Reader over a slice's bytes; nothing is copied. *)

  val pos : t -> int
  (** Current cursor, relative to the start of the view. *)

  val remaining : t -> int
  val is_empty : t -> bool

  val seek : t -> int -> unit
  (** Absolute cursor move within the view.  @raise Invalid_argument when
      out of bounds. *)

  val skip : t -> int -> unit
  (** Relative cursor move forward.  @raise Truncated when past the end. *)

  val u8 : t -> int
  val u16_be : t -> int
  val u16_le : t -> int
  val u32_be : t -> int32
  val u32_le : t -> int32
  val u32_be_int : t -> int
  (** [u32_be] as a non-negative OCaml [int]. *)

  val u32_le_int : t -> int

  val take : t -> int -> string
  (** [take t n] consumes and returns the next [n] bytes. *)

  val rest : t -> string
  (** Consume and return everything left. *)

  val take_slice : t -> int -> Slice.t
  (** [take] without the copy: the returned slice views the reader's
      backing string.  @raise Truncated as [take]. *)

  val rest_slice : t -> Slice.t
  (** [rest] without the copy. *)
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
