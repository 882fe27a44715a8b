(** Execution-order recovery.

    Obfuscators scramble the byte order of code and stitch the pieces
    back together with unconditional jumps (the paper's Figure 1(c)).
    Matching must therefore walk code in {e execution order}.  A trace
    starts at a candidate entry offset and follows unconditional jumps
    and calls, falls through conditional branches and [loop]s, and stops
    at returns, halts, out-of-range targets, revisited offsets, or a
    length bound. *)

type step = Icache.entry = {
  off : int;  (** byte offset of the instruction within the region *)
  len : int;
  insn : Insn.t;
  sems : Sem.t array;  (** [Sem.lift insn]: read-only *)
  kinds : int;  (** [Sem.kinds sems] *)
}
(** Steps carry no abstract state: a consumer that needs constants folds
    {!Absint.step} over [sems] itself, only as far as it reads.  Nothing
    in a step depends on the path that reached it, so a cached walk's
    steps are the memo's own records, shared by every trace through the
    offset: never write to one or to its [sems].  Every step, memoized or fresh,
    is built by {!Icache.make_entry}. *)

type t = step array

val build : ?budget:Budget.t -> ?max_len:int -> string -> entry:int -> t
(** Trace of at most [max_len] (default 1024) instructions starting at
    byte offset [entry].  Empty when [entry] is out of range.  When
    [budget] is given, every step takes one instruction of fuel after
    the length, range and visited checks: the walk stops early (and the
    budget records [Truncated Instructions]) once the per-packet decode
    allowance is gone.  Steps follow {!Icache.successor}.  Every offset is decoded afresh through
    [Decode.at], with no memo and no shared scratch: this is the
    reference {!walk} is checked against. *)

val walk : ?budget:Budget.t -> ?max_len:int -> Icache.t -> entry:int -> int
(** {!Icache.walk} with {!build}'s default [max_len]: the same walk as
    {!build} over the cache's region, written into the cache instead of
    returned.  The result is the trace's length, and until the next walk
    over the same cache {!Icache.step} reads step [i] back,
    {!Icache.step_index} maps offsets to steps and {!Icache.union} is the
    steps' kind union.  Each byte offset is decoded and lifted at most
    once per {!Icache.t}, so traces from different entries share the
    per-offset work and the step records themselves, and a walk
    allocates no record, list or array per trace.  Steps [0 .. n-1] are
    exactly the trace [build code ~entry] returns over the cache's
    region [code], and under equal budgets both spend the same fuel. *)

val entry_points : ?limit:int -> string -> int list
(** Candidate entry offsets for a code region, most promising first:
    the region start and a few following offsets (decode
    self-synchronization), branch targets discovered by linear sweep,
    and offsets following sweep boundaries ([ret], [int3], undecodable
    bytes).  Capped at [limit] (default 256), deduplicated. *)

val pp : Format.formatter -> t -> unit
