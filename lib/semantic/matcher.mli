(** The template-matching engine.

    Matching runs over recovered execution traces ({!Trace}).  A match
    binds template register variables to concrete registers (injectively)
    and constant variables to folded constant values, allows up to
    [max_gap] interleaved instructions between steps provided they do not
    write any bound register, and finally checks the template's guards.

    [scan] is the entry point used by the NIDS pipeline: it enumerates
    candidate entry offsets, builds traces, and reports at most one match
    per template for the code region. *)

type result = {
  template : string;
  entry : int;  (** trace entry offset that produced the match *)
  offsets : int list;  (** offsets of the matched instructions, in order *)
  reg_bindings : (Template.tvar * Reg.t) list;
  const_bindings : (Template.cvar * int32) list;
}

val decode_memo_hits : string
(** Registry counter names {!scan} accumulates into:
    ["sanids_decode_memo_hits_total"], … *)

val decode_memo_misses : string
val decode_memo_lifts : string
val scan_budget_exhausted : string

type scan_report = {
  results : result list;
  outcome : Budget.outcome;
      (** the shared budget's state after the scan; [Complete] when no
          budget was supplied *)
  tripped : string list;
      (** templates abandoned for hitting the per-template step cap —
          what the circuit breaker feeds on *)
}

val scan_report_slice :
  ?entries:int list ->
  ?metrics:Sanids_obs.Registry.t ->
  ?budget:Budget.t ->
  ?step_cap:int ->
  templates:Template.t list ->
  Slice.t ->
  scan_report
(** Match templates against a raw code region.  By default every
    not-yet-covered byte offset is tried as a trace entry (bounded by a
    work budget); [entries] overrides that enumeration.  Templates
    sharing a name are variants of one behaviour: at most one result per
    template {e name}.

    The template list is compiled once per domain, on that domain's
    first scan of it, and reused while later scans pass the same
    templates (physically, in the same order: a list the breakers
    filter afresh for each packet reuses it too); nothing is compiled
    when a pipeline is created.  The compiled set holds the
    deduplicated byte needles, family indices, an admission table over
    a trace's kind union, and each template's steps over register and
    constant slots.  Each domain also keeps the scan's scratch: the
    decode memo's immediate arrays, the abstract states along the
    current trace, the slot environment, the binding trail and the
    offset buffer, all reset rather than allocated per scan.

    Decoding is shared across entries through one {!Icache.t} per scan,
    whose offset buffer holds the current trace ({!Trace.walk}), and
    constants are read from {!Absint} states folded along each trace
    only as far as a template step asks for one.  Variants are closed by
    family: once one matches, the rest of its name never runs again.
    When [metrics] is given, the decode memo's tier-1 hit and miss
    counts, its tier-2 fills ({!Icache.lifts}) and budget exhaustion are
    accumulated into that registry under {!decode_memo_hits},
    {!decode_memo_misses}, {!decode_memo_lifts} and
    {!scan_budget_exhausted}.

    Adversarial-load bounds: [budget] charges trace instructions and
    matcher step attempts to the packet's shared {!Budget.t} (the scan
    stops cleanly when fuel runs out and the report's [outcome] says
    so); [step_cap] limits each template {e name}'s step attempts within
    this scan — a template that hits it is abandoned and listed in
    [tripped] while every other template keeps matching.  Every start
    position along a trace costs one step attempt, including the starts
    the first-step dispatch rejects without searching.  With neither
    supplied, behaviour and results are exactly the unbudgeted
    matcher's.

    The trace gates run only when neither is supplied.  A template is
    skipped on a trace whose union of semantic-kind bits (each step's
    {!Sem.kinds}, read off the memo's tier-1 shape by the walk) misses
    the demand of one of its steps — one read of the admission table
    per trace, since every step must consume an operation of the trace
    and the demand covers every operation the step can match.  On a
    trace it admits, the order gate bounds the search: a match consumes
    the required steps in order, so a step is attempted only at walk
    positions from which it and the steps after it can still be met in
    order by tier-1 kinds, and a start whose kinds miss the first
    step's demand is passed over without decoding it.  Only the steps
    the search then reads are decoded and lifted in full.  Under a
    budget or step cap every start is visited and charged as before,
    so the results are the same either way and the fuel spent is the
    plain search's.

    The byte prefilter runs on the slice in place, in one pass for all
    of the set's needles, allocating nothing: a template is out before
    any trace is built, spending no fuel, when the region lacks one of
    its [data] literals, the [CD vector] bytes of an [int vector] its
    [Syscall] steps need, or the 4 little-endian bytes of a
    [Code_const] outside [-128, 255].  The region is materialized to a
    string only when at least one template survives it. *)

val scan :
  ?entries:int list ->
  ?metrics:Sanids_obs.Registry.t ->
  ?budget:Budget.t ->
  ?step_cap:int ->
  templates:Template.t list ->
  string ->
  result list
(** {!scan_report_slice} over a whole string, projected to its
    results. *)

val satisfies : Template.t -> string -> bool
(** The paper's [P |= T] relation, for one region of code. *)

val pp_result : Format.formatter -> result -> unit

type evidence = {
  ev_template : string;  (** template name that matched *)
  ev_entry : int;  (** byte offset of the trace entry — where execution
                       of the matched behaviour starts *)
  ev_span : (int * int) option;
      (** lowest and highest matched-instruction offsets; [None] for
          fabricated results that carry no offsets (degraded fallback) *)
  ev_consts : (Template.cvar * int32) list;
      (** constant-variable bindings, e.g. the bound decoder key *)
}
(** Structured match evidence — the seam the dynamic-confirmation stage
    consumes.  Everything a second verdict stage needs to seed an
    emulator (entry point, matched region, bound constants) without
    re-deriving it from the offset list. *)

val evidence : result -> evidence
