(** Per-region instruction cache: memoized decode + lift.

    [Matcher.scan] enumerates many candidate entry offsets over one code
    region, and the traces they spawn overlap heavily (an n-byte NOP sled
    costs ~n × trace-length decodes without sharing).  An [Icache.t]
    decodes and lifts each byte offset at most once; every later trace
    walking through that offset reuses the offset's {!entry}.

    Only path-independent data is memoized — abstract states are a
    property of the walk, not the offset, and the matcher folds them per
    trace — so a cached walk is byte-for-byte identical to an uncached
    one.  A memo entry is itself the trace step ({!Trace.step} is
    [entry]): walks share the records instead of copying them.

    Filling a slot allocates the entry and what the instruction's own
    operands need, nothing else.  The cache owns one reader over its
    region: a miss seeks it to the offset and calls {!Decode.next}, whose
    length is how far the reader moved, so no per-offset reader, decoded
    record or option is built.  Register operands, [Bad] bytes, imm8s and
    the lifts of operand-free instructions are preallocated and shared
    ({!Decode}, {!Sem.lift}), which is why nothing may write to an
    entry's [sems].

    The memo lives in the minor heap and dies with its scan.  Its slots
    hold entries directly, an empty one holding a single sentinel entry
    (told apart by physical equality), and are cut into chunks of at
    most 256 words, the largest block the runtime allocates young, with
    the last chunk sized to the remainder (a 10-byte region allocates a
    10-slot chunk).  A single slot array longer than that would be born
    in the major heap, and every entry stored into it would be promoted
    by the next minor collection, long after its scan had finished.  Up
    to 64 KiB of region the outer array of chunks is young too; above
    that it is a major block, and the chunks it points at are promoted
    with it.

    The cache also owns the trace walker, {!walk}: one loop over the
    memo and its own scratch, a walk-stamped visited set and
    offset-to-step index (one [int array] over the region) and the walk
    itself, a growable [int array] of step offsets.  Starting a walk
    bumps the stamp and empties the buffer instead of clearing or
    allocating anything, so the hundreds of traces a scan walks share
    those arrays and a trace allocates nothing of its own: its steps are
    read back as the memo's records ({!step}), and the loop ORs their
    [kinds] as it goes ({!union}).  Only a walk writes a tag, so whether
    any trace has visited an offset is a tag test ({!covered}): that is
    what a scan's entry enumeration skips on.  The buffer starts at 64
    offsets and doubles for a long trace; it holds only immediates, so a
    grown buffer in the major heap promotes nothing.  A cache belongs to
    one scan on one domain; the only values it shares beyond its scan
    are the immutable operands and read-only lift arrays above. *)

type entry = {
  off : int;  (** byte offset of the instruction within the region *)
  len : int;
  insn : Insn.t;
  sems : Sem.t array;
      (** [Sem.lift insn]: read-only, possibly an array shared by every
          lift of the same instruction *)
  kinds : int;  (** [Sem.kinds sems], computed once per entry *)
}

val make_entry : off:int -> len:int -> Insn.t -> entry
(** The one constructor of steps: lifts [insn] and computes its kind
    mask.  The memo's fill and {!Trace.build}'s fresh decodes both build
    their records here. *)

type t

val create : string -> t
(** A fresh, empty cache over one code region. *)

val lookup : t -> int -> entry
(** The entry at an in-range byte offset, decoded and lifted on the
    first lookup (a miss) and read from its slot after that (a hit).
    Every in-range offset decodes, a byte with no decoding as
    [Insn.Bad].  The offset must be in range: the walker checks it
    first, and {!decode} is the checked form. *)

val decode : t -> int -> entry option
(** {!lookup} with a range check: [None] out of range, which counts as
    no lookup. *)

val successor : Insn.t -> next:int -> int
(** The one successor rule of a trace: after [insn], whose fall-through
    offset is [next], a trace goes to an unconditional jump's or call's
    target, stops after [ret], [int3] or an undecodable byte (the result
    is [-1]), and falls through everything else, conditional branches
    and loops included.  A negative or out-of-range result ends the
    trace.  {!walk} and {!Trace.build} both step by it. *)

val walk : ?budget:Budget.t -> max_len:int -> t -> entry:int -> int
(** Walk the trace from byte offset [entry] through the memo, following
    {!successor}, and return its length: at most [max_len] steps, none
    when [entry] is out of range, and it stops at the first offset this
    walk already visited.  With a [budget], each step takes one
    instruction of fuel after the length, range and visited checks, and
    the walk stops (the budget recording [Truncated Instructions]) when
    none is left.  Until the next walk over the same cache, {!step} reads
    step [i] back, {!step_index} maps offsets to steps and {!union} is
    the OR of the steps' [kinds].  The walk allocates nothing but the
    memo entries it fills (and, for a long trace, a doubled step
    buffer). *)

val union : t -> int
(** OR of the [kinds] of the most recent walk's steps ([0] before any
    walk, or after an empty one). *)

val covered : t -> int -> bool
(** Has any walk over this cache visited the in-range offset?  False
    everywhere on a fresh cache. *)

val length : t -> int
(** Steps on the most recent walk. *)

val step : t -> int -> entry
(** [step c i]: the memo record of the most recent walk's step [i].
    Reading a step back is not a lookup: it counts as neither hit nor
    miss.  @raise Invalid_argument when [i] is past the walk. *)

val step_index : t -> int -> int
(** Step index of an offset on the most recent walk; [-1] when the
    offset is out of range or was not visited by that walk. *)

val hits : t -> int
(** Lookups served from the table. *)

val misses : t -> int
(** Lookups that had to decode. *)
