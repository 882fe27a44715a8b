(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address: an immediate [int] in [\[0, 2{^32})] behind the
    abstraction, so decoding, comparing and hashing one allocates
    nothing. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]; each octet must be in [\[0,255\]]. *)

val of_int : int -> t
(** The address whose 32-bit big-endian value is the argument.
    @raise Invalid_argument outside [\[0, 2{^32})]. *)

val to_int : t -> int
(** The address's 32-bit value, in [\[0, 2{^32})]. *)

val of_int32 : int32 -> t
(** The address whose bits are the [int32]'s (so [-1l] is
    [255.255.255.255]). *)

val to_int32 : t -> int32

val of_string : string -> t
(** Dotted quad.  @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val compare : t -> t -> int
(** Unsigned: [128.0.0.0] sorts after [127.255.255.255]. *)

val equal : t -> t -> bool

val hash : t -> int
(** Equal to [Hashtbl.hash (to_int32 a)], the hash of the boxed form. *)

module Tbl : Hashtbl.S with type key = t
(** Tables keyed on addresses by {!equal} and {!hash}, with no
    polymorphic hashing or comparison on lookup. *)

type prefix
(** A CIDR prefix such as [192.168.0.0/16]. *)

val prefix : t -> int -> prefix
(** [prefix addr len]; [len] in [\[0,32\]].  Host bits are cleared. *)

val prefix_of_string : string -> prefix
(** ["a.b.c.d/len"].  @raise Invalid_argument on malformed input. *)

val prefix_of_string_opt : string -> prefix option
(** Non-raising {!prefix_of_string}. *)

val mem : t -> prefix -> bool
val prefix_size : prefix -> int
(** Number of addresses covered (capped at [max_int]). *)

val nth : prefix -> int -> t
(** [nth p i] is the [i]-th address of the prefix.
    @raise Invalid_argument when out of range. *)

val prefix_to_string : prefix -> string
val pp : Format.formatter -> t -> unit
