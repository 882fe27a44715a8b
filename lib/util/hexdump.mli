(** Hex encoding and canonical hexdump rendering for diagnostics. *)

val encode : string -> string
(** [encode s] is lowercase hex, two characters per byte, no separators. *)

val decode : string -> string
(** Inverse of [encode]; whitespace between byte pairs is ignored.
    @raise Invalid_argument on odd digit counts or non-hex characters. *)

val decode_opt : string -> string option
(** Non-raising {!decode}. *)

val of_ints : int list -> string
(** [of_ints [0x90; 0xcd; ...]] builds a byte string; each element must be
    in [\[0, 255\]]. *)

val to_string : string -> string
(** [pp] rendered to a string. *)
