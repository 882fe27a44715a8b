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

val match_trace : Template.t -> Trace.t -> entry:int -> result option
(** Try every start position along one trace. *)

val decode_memo_hits : string
(** Registry counter names {!scan} accumulates into:
    ["sanids_decode_memo_hits_total"], … *)

val decode_memo_misses : string
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

val scan_report :
  ?entries:int list ->
  ?metrics:Sanids_obs.Registry.t ->
  ?budget:Budget.t ->
  ?step_cap:int ->
  templates:Template.t list ->
  string ->
  scan_report
(** Match templates against a raw code region.  By default every
    not-yet-covered byte offset is tried as a trace entry (bounded by a
    work budget); [entries] overrides that enumeration.  Templates
    sharing a name are variants of one behaviour: at most one result per
    template {e name}.

    Decoding is shared across entries through one {!Icache.t} per scan,
    and constants are read from {!Absint} states folded along each trace
    only as far as a template step asks for one.  When [metrics] is
    given, the decode-memo hit/miss counts and budget exhaustion are
    accumulated into that registry under {!decode_memo_hits},
    {!decode_memo_misses} and {!scan_budget_exhausted}.

    Adversarial-load bounds: [budget] charges trace instructions and
    matcher step attempts to the packet's shared {!Budget.t} (the scan
    stops cleanly when fuel runs out and the report's [outcome] says
    so); [step_cap] limits each template {e name}'s step attempts within
    this scan — a template that hits it is abandoned and listed in
    [tripped] while every other template keeps matching.  Every start
    position along a trace costs one step attempt, including the starts
    the first-step dispatch rejects without searching.  With neither
    supplied, behaviour and results are exactly the unbudgeted
    matcher's. *)

val scan_report_slice :
  ?entries:int list ->
  ?metrics:Sanids_obs.Registry.t ->
  ?budget:Budget.t ->
  ?step_cap:int ->
  templates:Template.t list ->
  Slice.t ->
  scan_report
(** {!scan_report} over a payload view.  The data prefilter (one
    allocation-free substring search per template literal) runs on the
    slice in place; the region is materialized to a string only when at
    least one template survives it. *)

val scan :
  ?entries:int list ->
  ?metrics:Sanids_obs.Registry.t ->
  ?budget:Budget.t ->
  ?step_cap:int ->
  templates:Template.t list ->
  string ->
  result list
(** [scan_report] projected to its results. *)

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
