(** The full semantics-aware NIDS (paper Figure 3): traffic classifier →
    binary detection & extraction → disassembler → IR → semantic
    analyzer.

    Past the classifier, one buffer's analysis is a fixed, ordered list
    of stages over one per-analysis record: the suspicion gate, the
    verdict-cache lookup, breaker admission, extraction and a template
    scan per frame, the breakers' bookkeeping, deduplication, dynamic
    confirmation (static refutation nested inside it), the degraded
    fallback, and cache admission.  The gate runs first, so a buffer it
    rejects is never keyed, looked up or cached; a cache hit replays the
    stored verdicts and skips every later stage, the breakers'
    bookkeeping included.  A stage with nothing to do opens no span.

    Every pipeline owns a metrics registry ({!Sanids_obs.Registry.t}):
    stage counters, occupancy gauges and per-stage latency histograms
    ([sanids_stage_classify_seconds], [_analyze_], and nested inside
    analyze [_gate_], [_cache_], [_extract_], [_match_], [_confirm_] and
    [_static_refute_]).  {!snapshot} exports it; {!stats} is the stable
    typed view over that snapshot.  Registries are single-domain — the
    parallel driver gives each worker its own pipeline and merges
    snapshots ({!Parallel}). *)

type t

type verdict = {
  frame : Sanids_extract.Extractor.frame;
      (** the extracted frame the match was found in *)
  match_ : Matcher.result;
  cached : bool;  (** served from the verdict cache, not re-analyzed *)
  degraded : bool;
      (** produced by the degraded baseline pattern pass, not the full
          semantic matcher (bindings and offsets are empty) *)
  confirmation : Sanids_confirm.Confirm.outcome option;
      (** the dynamic-confirmation stage's second verdict: the match was
          executed in the sandboxed emulator and either proved
          ([Confirmed_decrypt]/[Confirmed_syscall]), disproved
          ([Refuted] — dropped from alerting), or left open
          ([Inconclusive]).  [None] when {!Config.t.confirm} is unset or
          the verdict is degraded.  Cached verdicts replay the
          confirmation stored with them. *)
}
(** One template match on one analyzed buffer — the typed result of the
    analysis stages. *)

type analysis = {
  verdicts : verdict list;
  outcome : Budget.outcome;
      (** the per-packet budget's state after analysis; [Complete] when
          no budget is configured *)
  degraded : bool;  (** the baseline fallback pass ran on this buffer *)
}
(** What happened to one analyzed buffer.  With no budget, breaker or
    degradation configured this is always
    [{ verdicts; outcome = Complete; degraded = false }]. *)

val create : ?tracer:Sanids_obs.Span.tracer -> Config.t -> t
(** [tracer] attaches JSONL span tracing to the pipeline's stage timers.
    Without one, the classify stage is timed on about 1 call in
    {!Sanids_obs.Span.sample_period} (see {!Sanids_obs.Span}); with one,
    every call of every stage is timed and traced.
    @raise Invalid_argument when {!Config.validate} rejects the
    configuration. *)

val process_packet : t -> Packet.t -> Alert.t list
(** Run one packet through the pipeline.  At most one alert per template
    name per packet. *)

val process_packets : t -> Packet.t list -> Alert.t list

val analyze_report : t -> string -> analysis
(** The analysis stages only (no classification): extraction per config,
    then disassembly and template matching, deduplicated to one verdict
    per template name — all under the configured per-packet budget and
    breaker state, with the degraded fallback applied when configured.
    Only pristine analyses (budget untripped, nothing abandoned or
    excluded, no fallback, every verdict confirmed when confirmation is
    on) of buffers past the suspicion gate enter the verdict cache. *)

val analyze_report_slice : t -> Slice.t -> analysis
(** {!analyze_report} over a payload view — the zero-copy entry the
    packet path uses.  [analyze_report t s = analyze_report_slice t
    (Slice.of_string s)]. *)

val analyze_payload : t -> string -> Matcher.result list
(** {!analyze_report}'s verdicts projected to bare matcher results. *)

val registry : t -> Sanids_obs.Registry.t
(** The pipeline's live metrics registry (also the place for cooperating
    layers to register their own metrics). *)

val snapshot : t -> Sanids_obs.Snapshot.t
(** Sample occupancy gauges and snapshot the registry. *)

val stats : t -> Stats.t
(** [Stats.of_snapshot (snapshot t)]. *)
