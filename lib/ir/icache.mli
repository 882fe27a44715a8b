(** Per-region instruction cache: memoized decode + lift.

    [Matcher.scan] enumerates many candidate entry offsets over one code
    region, and the traces they spawn overlap heavily (an n-byte NOP sled
    costs ~n × trace-length decodes without sharing).  An [Icache.t]
    decodes and lifts each byte offset at most once; every later trace
    walking through that offset reuses the [(insn, len, sems)] entry.

    Only path-independent data is memoized — abstract states are a
    property of the walk, not the offset, and the matcher folds them per
    trace — so a cached walk is byte-for-byte identical to an uncached
    one.

    The cache also owns the trace walker's scratch: a walk-stamped
    visited set and offset-to-step index, two [int array]s over the
    region.  Starting a walk bumps the stamp instead of clearing or
    allocating anything, so the hundreds of traces a scan builds share
    one pair of arrays.  A cache belongs to one scan on one domain;
    nothing in it is global. *)

type entry = {
  insn : Insn.t;
  len : int;
  sems : Sem.t array;  (** [Sem.lift insn], pre-converted for indexing *)
}

type t

val create : string -> t
(** A fresh, empty cache over one code region. *)

val code : t -> string
(** The cached region. *)

val decode : t -> int -> entry option
(** Decode at a byte offset, memoized.  [None] out of range or when the
    byte has no decoding ([Decode.at] returning [None]); the negative
    result is memoized too. *)

val start_walk : t -> unit
(** Begin a new trace walk: every offset becomes unvisited, in O(1). *)

val visited : t -> int -> bool
(** Is the in-range offset on the current walk? *)

val visit : t -> int -> int -> unit
(** [visit c off i]: the current walk's step [i] sits at offset [off]. *)

val step_index : t -> int -> int
(** Step index of an offset on the most recent walk; [-1] when the
    offset is out of range or was not visited by that walk. *)

val hits : t -> int
(** Lookups served from the table. *)

val misses : t -> int
(** Lookups that had to decode. *)

val hit_ratio : t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)
