(** Per-region instruction cache: a two-tier decode memo.

    [Matcher.scan] enumerates many candidate entry offsets over one code
    region, and the traces they spawn overlap heavily (an n-byte NOP sled
    costs ~n × trace-length decodes without sharing).  An [Icache.t]
    classifies each byte offset at most once, and decodes and lifts it at
    most once, however many traces walk through it.

    {b Tier 1} is a {e shape} per offset: the instruction's length, its
    kind mask and its successor ({!successor}), packed into one immediate
    in an array with no pointers.  The walk ({!walk}), its kind union
    ({!union}) and coverage ({!covered}) read only shapes, and so does a
    scan's entry enumeration and its trace gate.  A shape comes off
    encoding tables indexed by the opcode (after a [0F] escape or an
    [F3] prefix, the byte that follows), the ModRM byte and the class of
    the SIB byte; the tables are derived when the module is initialised,
    by running {!Decode.next}, {!Sem.lift} and {!successor} over
    representatives of each class, so they are not a second definition
    of x86.  A class whose representatives disagree (the one the decoder
    has is [lea] with a SIB byte and no index, an advance exactly when
    the base is the destination) is read with the full decode instead.
    An instruction that runs past the region's end is [Insn.Bad], one
    byte long, as {!Decode.next} reads it.

    {b Tier 2} is the {!entry}: the instruction, its lift and kinds.  It
    is built the first time {!step}, {!lookup} or {!decode} asks for that
    offset, so a scan pays for decoding and lifting only on the walks it
    searches: under the trace gate, those whose kind union admits some
    template; under a budget or step cap, every walk, since the search
    then reads every step.  Only path-independent data is memoized —
    abstract states are a property of the walk, not the offset, and the
    matcher folds them per trace — so a cached walk is byte-for-byte
    identical to an uncached one, and a memo entry is itself the trace
    step ({!Trace.step} is [entry]).

    The counters keep their meaning across the split: a lookup is a
    tier-1 lookup, one per walk step and one per {!lookup} or {!decode};
    it hits when the offset's shape is already filled and misses when
    it has to classify the offset.  {!lifts} counts tier-2 fills, so
    [lifts <= misses] on any cache, with equality when every classified
    offset is also read in full.

    Filling an entry allocates the entry and what the instruction's own
    operands need, nothing else: the cache owns one reader over its
    region, seeked to the offset for {!Decode.next}, and register
    operands, [Bad] bytes and imm8s are preallocated and shared
    ({!Decode}).

    The entries live in the minor heap and die with their scan.  Their
    slots are cut into chunks of at most 256 words, the largest block the
    runtime allocates young, with the last chunk sized to the remainder
    (a 10-byte region allocates a 10-slot chunk), and a chunk is
    allocated when its first entry is built.  A single slot array longer
    than that would be born in the major heap, and every entry stored
    into it would be promoted by the next minor collection, long after
    its scan had finished.  Up to 64 KiB of region the outer array of
    chunks is young too; above that it is a major block, and the chunks
    it points at are promoted with it.  The shapes, like the walk
    scratch below, hold only immediates, so it does not matter where
    they live: a cache borrows them from a {!scratch}, and [Matcher]
    keeps one scratch per domain, so a scan resets arrays
    that are already there (the shapes to 0 and the tags to -1 over the
    region's length) instead of allocating two region-sized blocks,
    which past 256 words would be major-heap allocations.

    The cache also owns the trace walker, {!walk}: one loop over the
    shapes and its own scratch, a walk-stamped visited set and
    offset-to-step index (one [int array] over the region) and the walk
    itself, an [int array] of step offsets.  Starting a walk
    bumps the stamp and empties the buffer instead of clearing or
    allocating anything, so the hundreds of traces a scan walks share
    those arrays and a trace allocates nothing of its own: its steps are
    read back as the memo's records ({!step}), and the loop ORs their
    kinds as it goes ({!union}).  Only a walk writes a tag, so whether
    any trace has visited an offset is a tag test ({!covered}).  The
    step buffer is as long as the region, which no walk outgrows.  A
    cache belongs to one scan on one domain; the only values it shares
    beyond its scan are its scratch (borrowed by one cache at a time),
    the encoding tables (read-only; {!tables_intact} checks them), the
    immutable operands and the read-only lift arrays. *)

type entry = {
  off : int;  (** byte offset of the instruction within the region *)
  len : int;
  insn : Insn.t;
  sems : Sem.t array;
      (** [Sem.lift insn]: read-only, shared by every walk through the
          entry *)
  kinds : int;  (** [Sem.kinds sems], computed once per entry *)
}

val make_entry : off:int -> len:int -> Insn.t -> entry
(** The one constructor of steps: lifts [insn] and computes its kind
    mask.  The memo's fill and {!Trace.build}'s fresh decodes both build
    their records here. *)

type t

type scratch
(** The immediate arrays a cache borrows: the shapes, the walk's tags
    and its step buffer. *)

val scratch : unit -> scratch
(** An empty scratch; it grows to the largest region created over it. *)

val create : ?scratch:scratch -> string -> t
(** A fresh, empty cache over one code region.  The cache borrows its
    shapes, tags and step buffer from [scratch] (by default a fresh
    one), reset over the region's length (grown first when the region
    is longer than any before): the cache is valid until the next
    [create] over the same scratch. *)

val lookup : t -> int -> entry
(** The entry at an in-range byte offset: a tier-1 lookup (a miss the
    first time, a hit after that), then the offset's entry, decoded and
    lifted the first time any call asks for it.  Every in-range offset
    decodes, a byte with no decoding as [Insn.Bad].  The offset must be
    in range: {!decode} is the checked form. *)

val decode : t -> int -> entry option
(** {!lookup} with a range check: [None] out of range, which counts as
    no lookup. *)

val successor : Insn.t -> next:int -> int
(** The one successor rule of a trace, read off {!Insn.flow}: after
    [insn], whose fall-through offset is [next], a trace goes to a
    [Jump]'s or [Call]'s target, stops after a [Return] or [Halt] (the
    result is [-1]), and falls through everything else, [Branch]
    included.  A negative or out-of-range result ends the
    trace.  {!walk} and {!Trace.build} both step by it. *)

val shape : t -> int -> int
(** The tier-1 shape at an in-range byte offset, classified on the first
    lookup (a miss) and read from the array after that (a hit).  Read it
    with {!shape_len}, {!shape_kinds} and {!shape_next}: for the
    instruction [i] that {!Decode.next} reads at [off], they are its
    length, [Sem.kinds (Sem.lift i)] and [successor i ~next:(off + len)].
    @raise Invalid_argument out of range. *)

val shape_len : int -> int
val shape_kinds : int -> int
val shape_next : int -> int

val tables_intact : unit -> bool
(** The encoding tables still equal freshly derived ones — false once
    something has written into them.  They are mutable arrays shared by
    every cache on every domain. *)

val walk : ?budget:Budget.t -> max_len:int -> t -> entry:int -> int
(** Walk the trace from byte offset [entry] through the memo, following
    {!successor}, and return its length: at most [max_len] steps, none
    when [entry] is out of range, and it stops at the first offset this
    walk already visited.  With a [budget], each step takes one
    instruction of fuel after the length, range and visited checks, and
    the walk stops (the budget recording [Truncated Instructions]) when
    none is left.  Until the next walk over the same cache, {!step} reads
    step [i] back, {!step_index} maps offsets to steps and {!union} is
    the OR of the steps' kinds.  The walk reads and fills shapes only
    (except at an offset of a class the tables leave to the full
    decode), and allocates nothing: its step buffer is the cache's
    scratch, as long as the region, and a walk never visits an offset
    twice. *)

val union : t -> int
(** OR of the [kinds] of the most recent walk's steps ([0] before any
    walk, or after an empty one). *)

val covered : t -> int -> bool
(** Has any walk over this cache visited the in-range offset?  False
    everywhere on a fresh cache. *)

val next_uncovered : t -> int -> int
(** The first offset from the given one on that no walk over this cache
    has visited, or the region's length when there is none: the next
    entry of a scan's whole-buffer enumeration. *)

val length : t -> int
(** Steps on the most recent walk. *)

val step : t -> int -> entry
(** [step c i]: the memo record of the most recent walk's step [i],
    decoded and lifted if no call asked for it before.  Reading a step
    back is not a lookup: it counts as neither hit nor miss.
    @raise Invalid_argument when [i] is past the walk. *)

val step_kinds : t -> int -> int
(** [step_kinds c i]: the kind mask of the most recent walk's step [i],
    read off its tier-1 shape: [(step c i).kinds] without decoding or
    lifting the step.  @raise Invalid_argument when [i] is past the
    walk. *)

val step_index : t -> int -> int
(** Step index of an offset on the most recent walk; [-1] when the
    offset is out of range or was not visited by that walk. *)

val hits : t -> int
(** Lookups served from the table. *)

val misses : t -> int
(** Lookups that had to classify the offset. *)

val lifts : t -> int
(** Tier-2 fills: offsets decoded and lifted in full. *)
