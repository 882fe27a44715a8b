(** Per-stage pipeline counters and timings — a thin typed view computed
    from an observability snapshot ({!Sanids_obs.Snapshot.t}).

    The pipeline itself accumulates into a metrics registry; [t] exists
    so callers keep a stable record to read and a stable [pp] rendering.
    Aggregation happens on snapshots ({!Sanids_obs.Snapshot.merge}), not
    on this view. *)

type t = {
  packets : int;
  bytes : int;
  classified_suspicious : int;
  prefilter_hits : int;  (** payloads past the cheap suspicion gate *)
  frames : int;
  frame_bytes : int;  (** bytes handed to the disassembler *)
  alerts : int;
  analysis_seconds : float;
      (** wall time in extract+disassemble+match (the
          [sanids_stage_analyze_seconds] histogram's sum) *)
  verdict_cache_hits : int;
      (** analyses short-circuited by the payload verdict cache *)
  verdict_cache_misses : int;
  verdict_cache_evictions : int;
  decode_memo_hits : int;
      (** per-offset lookups served from the scan's decode memo *)
  decode_memo_misses : int;
      (** per-offset lookups that had to classify the offset *)
  decode_memo_lifts : int;
      (** offsets decoded and lifted in full, at most [decode_memo_misses]
          (the [sanids_decode_memo_lifts_total] counter; not on the
          {!pp} line) *)
  scan_budget_exhausted : int;
      (** scans that ran out of work budget with templates still open *)
  ingest_errors : int;
      (** records rejected at the ingest boundary — the
          [sanids_ingest_errors_total{reason}] family summed over
          reasons *)
  shed : int;
      (** packets dropped at stream-mode admission — the
          [sanids_shed_total{policy}] family summed over policies *)
  worker_failures : int;
      (** packets abandoned because analysis raised inside a worker
          domain (the pipeline survived and kept its shard) *)
  budget_truncated : int;
      (** analyses cut short by the per-packet budget — the
          [sanids_budget_truncated_total{reason}] family summed over
          reasons *)
  degraded : int;
      (** analyses that fell back to the degraded baseline pass — the
          [sanids_degraded_total{stage}] family summed over stages *)
  breaker_open : int;
      (** circuit-breaker open transitions — the
          [sanids_breaker_open_total{template}] family summed over
          templates *)
  worker_restarts : int;
      (** stalled workers abandoned and respawned by the parallel
          watchdog *)
  confirmed : int;
      (** matches the dynamic-confirmation stage proved by execution
          (the [sanids_confirm_total{outcome}] family's
          [confirmed_decrypt] + [confirmed_syscall]) *)
  refuted : int;
      (** matches the emulator disproved — demoted false positives
          ([sanids_confirm_total{outcome="refuted"}]) *)
  static_refuted : int;
      (** matches the abstract pre-stage disproved without running the
          emulator — also demoted, and each one is an emulator call
          avoided ([sanids_confirm_total{outcome="static_refuted"}]) *)
  confirm_inconclusive : int;
      (** confirmation runs that ran out of budget or could not be
          seeded *)
}

val zero : t

val of_snapshot : Sanids_obs.Snapshot.t -> t
(** Project the [sanids_*] metrics of a snapshot into the typed view;
    absent metrics read as zero. *)

val pp : Format.formatter -> t -> unit
