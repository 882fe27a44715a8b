(** IPv4 addresses and prefixes. *)

type t
(** An IPv4 address. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is [a.b.c.d]; each octet must be in [\[0,255\]]. *)

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_string : string -> t
(** Dotted quad.  @raise Invalid_argument on malformed input. *)

val of_string_opt : string -> t option
val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

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
