(** RFC 1071 internet checksum. *)

val ones_complement : string -> int
(** Checksum over a byte string (odd lengths are zero-padded). *)

val ones_complement_list : string list -> int
(** Checksum over the concatenation, without materializing it. *)

val ones_complement_slices : Slice.t list -> int
(** {!ones_complement_list} over slices — the zero-copy decode path sums
    headers and payloads in place.  The same even-length-except-last
    convention applies. *)

val valid_slice : Slice.t -> bool

