(** Execution-order recovery.

    Obfuscators scramble the byte order of code and stitch the pieces
    back together with unconditional jumps (the paper's Figure 1(c)).
    Matching must therefore walk code in {e execution order}.  A trace
    starts at a candidate entry offset and follows unconditional jumps
    and calls, falls through conditional branches and [loop]s, and stops
    at returns, halts, out-of-range targets, revisited offsets, or a
    length bound. *)

type step = {
  off : int;  (** byte offset of the instruction within the region *)
  len : int;
  insn : Insn.t;
  sems : Sem.t array;  (** [Sem.lift insn], indexable without [List.nth] *)
}
(** Steps carry no abstract state: a consumer that needs constants folds
    {!Absint.step} over [sems] itself, only as far as it reads. *)

type t = step array

val build : ?budget:Budget.t -> ?max_len:int -> string -> entry:int -> t
(** Trace of at most [max_len] (default 1024) instructions starting at
    byte offset [entry].  Empty when [entry] is out of range.  When
    [budget] is given, every step first takes one instruction of fuel:
    the walk stops early (and the budget records [Truncated
    Instructions]) once the per-packet decode allowance is gone.  Every
    offset is decoded afresh: this is the reference {!build_cached} is
    checked against. *)

val build_cached : ?budget:Budget.t -> ?max_len:int -> Icache.t -> entry:int -> t
(** Same walk as {!build} over the cache's region, but each byte offset
    is decoded and lifted at most once per {!Icache.t} — traces from
    different entries share the per-offset work.  Produces exactly the
    trace [build (Icache.code cache) ~entry] would.  Afterwards
    {!Icache.step_index} answers offset-to-step lookups for this trace,
    until the next walk over the same cache. *)

val entry_points : ?limit:int -> string -> int list
(** Candidate entry offsets for a code region, most promising first:
    the region start and a few following offsets (decode
    self-synchronization), branch targets discovered by linear sweep,
    and offsets following sweep boundaries ([ret], [int3], undecodable
    bytes).  Capped at [limit] (default 256), deduplicated. *)

val pp : Format.formatter -> t -> unit
