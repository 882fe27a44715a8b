module Obs = Sanids_obs

type t = {
  packets : int;
  bytes : int;
  classified_suspicious : int;
  prefilter_hits : int;
  frames : int;
  frame_bytes : int;
  alerts : int;
  analysis_seconds : float;
  verdict_cache_hits : int;
  verdict_cache_misses : int;
  verdict_cache_evictions : int;
  decode_memo_hits : int;
  decode_memo_misses : int;
  decode_memo_lifts : int;
  scan_budget_exhausted : int;
  ingest_errors : int;
  shed : int;
  worker_failures : int;
  budget_truncated : int;
  degraded : int;
  breaker_open : int;
  worker_restarts : int;
  confirmed : int;
  refuted : int;
  static_refuted : int;
  confirm_inconclusive : int;
}

let zero =
  {
    packets = 0;
    bytes = 0;
    classified_suspicious = 0;
    prefilter_hits = 0;
    frames = 0;
    frame_bytes = 0;
    alerts = 0;
    analysis_seconds = 0.0;
    verdict_cache_hits = 0;
    verdict_cache_misses = 0;
    verdict_cache_evictions = 0;
    decode_memo_hits = 0;
    decode_memo_misses = 0;
    decode_memo_lifts = 0;
    scan_budget_exhausted = 0;
    ingest_errors = 0;
    shed = 0;
    worker_failures = 0;
    budget_truncated = 0;
    degraded = 0;
    breaker_open = 0;
    worker_restarts = 0;
    confirmed = 0;
    refuted = 0;
    static_refuted = 0;
    confirm_inconclusive = 0;
  }

(* The registry metric each field is a view of. *)
let of_snapshot s =
  let c = Obs.Snapshot.counter_value s in
  {
    packets = c "sanids_packets_total";
    bytes = c "sanids_bytes_total";
    classified_suspicious = c "sanids_classified_suspicious_total";
    prefilter_hits = c "sanids_prefilter_hits_total";
    frames = c "sanids_frames_total";
    frame_bytes = c "sanids_frame_bytes_total";
    alerts = c "sanids_alerts_total";
    analysis_seconds =
      Obs.Histogram.sum (Obs.Snapshot.histogram s "sanids_stage_analyze_seconds");
    verdict_cache_hits = c "sanids_verdict_cache_hits_total";
    verdict_cache_misses = c "sanids_verdict_cache_misses_total";
    verdict_cache_evictions = c "sanids_verdict_cache_evictions_total";
    decode_memo_hits = c "sanids_decode_memo_hits_total";
    decode_memo_misses = c "sanids_decode_memo_misses_total";
    decode_memo_lifts = c "sanids_decode_memo_lifts_total";
    scan_budget_exhausted = c "sanids_scan_budget_exhausted_total";
    (* labeled families: sum across the reason/policy label sets *)
    ingest_errors = Obs.Snapshot.counter_sum s "sanids_ingest_errors_total";
    shed = Obs.Snapshot.counter_sum s "sanids_shed_total";
    worker_failures = c "sanids_worker_failures_total";
    budget_truncated = Obs.Snapshot.counter_sum s "sanids_budget_truncated_total";
    degraded = Obs.Snapshot.counter_sum s "sanids_degraded_total";
    breaker_open = Obs.Snapshot.counter_sum s "sanids_breaker_open_total";
    worker_restarts = c "sanids_worker_restarts_total";
    (* the confirm family's outcome labels, folded to the three fates *)
    confirmed =
      (let l outcome =
         c (Obs.Registry.series_name "sanids_confirm_total"
              [ ("outcome", outcome) ])
       in
       l "confirmed_decrypt" + l "confirmed_syscall");
    refuted =
      c (Obs.Registry.series_name "sanids_confirm_total"
           [ ("outcome", "refuted") ]);
    static_refuted =
      c (Obs.Registry.series_name "sanids_confirm_total"
           [ ("outcome", "static_refuted") ]);
    confirm_inconclusive =
      (let l outcome =
         c (Obs.Registry.series_name "sanids_confirm_total"
              [ ("outcome", outcome) ])
       in
       l "inconclusive_budget" + l "inconclusive_fault");
  }

let decode_memo_ratio t =
  let total = t.decode_memo_hits + t.decode_memo_misses in
  if total = 0 then 0.0 else float_of_int t.decode_memo_hits /. float_of_int total

let pp ppf t =
  Format.fprintf ppf
    "packets=%d bytes=%d suspicious=%d prefiltered=%d frames=%d frame_bytes=%d alerts=%d analysis=%.3fs vcache=%d/%d/%d decode_memo=%.2f budget_exhausted=%d ingest_errors=%d shed=%d worker_failures=%d truncated=%d degraded=%d breaker_open=%d worker_restarts=%d confirm=%d/%d/%d/%d"
    t.packets t.bytes t.classified_suspicious t.prefilter_hits t.frames
    t.frame_bytes t.alerts t.analysis_seconds t.verdict_cache_hits
    t.verdict_cache_misses t.verdict_cache_evictions (decode_memo_ratio t)
    t.scan_budget_exhausted t.ingest_errors t.shed t.worker_failures
    t.budget_truncated t.degraded t.breaker_open t.worker_restarts
    t.confirmed t.refuted t.static_refuted t.confirm_inconclusive
