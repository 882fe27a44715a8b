(** The one JSON codec: every machine-readable artifact (metric and
    span JSONL, lint findings and SARIF, the bench trajectory) is
    written here, and every JSON input (emu-test vectors, bench
    documents) is read here.  The toolchain ships no JSON library.

    Strings are byte strings.  The writer escapes ['"'], ['\\'] and
    every byte below 0x20 (RFC 8259) and passes every other byte
    through, so UTF-8 text stays byte-identical.  The reader rejects a
    raw byte below 0x20 inside a string and decodes [\u00XX] escapes to
    the byte [XX]; escapes above 0xFF are rejected.

    Numbers are kept as their literal text, so a writer pins its own
    format (the reader hands back exactly what it read).  Besides the
    RFC grammar the reader accepts [0x]-prefixed hex integers,
    optionally negative — an extension the emu-test vectors use for
    addresses and flag words. *)

type t =
  | Null
  | Bool of bool
  | Number of string  (** a number literal, written verbatim *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [Number] of the decimal literal. *)

val to_string : t -> string
(** Compact rendering: no whitespace, object fields in list order. *)

val of_string : string -> (t, string) result
(** Parse one complete value; the error carries a line number. *)

val member : string -> t -> t option
(** Field lookup on an object; [None] on missing field or non-object. *)

val to_int_opt : t -> int option
(** An integer literal (decimal or hex); [None] for floats. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option
