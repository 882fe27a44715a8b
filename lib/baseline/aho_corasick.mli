(** Aho–Corasick multi-pattern matcher — the engine behind the
    Snort-style static-signature baseline.

    Linear-time in the haystack, independent of pattern count, over raw
    bytes. *)

type t

val build : (string * string) list -> t
(** [build [(pattern, tag); ...]].  Patterns must be non-empty.
    @raise Invalid_argument on an empty pattern. *)

val search : t -> string -> (int * string) list
(** All matches as [(end_offset, tag)], in scan order (inclusive end
    offset of the match). *)

val first_match : t -> string -> string option
(** Tag of the first match, scanning left to right. *)

val matches : t -> string -> bool

val search_slice : t -> Slice.t -> (int * string) list
(** {!search} over a payload view: offsets are view-relative and no
    bytes are copied. *)
