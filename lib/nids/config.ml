type t = {
  honeypots : Ipaddr.t list;
  unused : Ipaddr.prefix list;
  scan_threshold : int;
  classification_enabled : bool;
  extraction_enabled : bool;
  templates : Template.t list;
  min_payload : int;
  reassemble : bool;
  verdict_cache_size : int;
  flow_alert_cache_size : int;
  stream_queue_capacity : int;
  stream_drop_policy : Bqueue.policy;
  analysis_budget : Budget.limits option;
  breaker : Breaker.config option;
  degrade : bool;
  confirm : Sanids_confirm.Confirm.config option;
  static_refute : bool;
      (* run the abstract pre-stage before the emulator on each hit *)
}

let default =
  {
    honeypots = [];
    unused = [];
    scan_threshold = 5;
    classification_enabled = true;
    extraction_enabled = true;
    templates = Template_lib.default_set;
    min_payload = 16;
    reassemble = false;
    verdict_cache_size = 4096;
    flow_alert_cache_size = 65536;
    stream_queue_capacity = 8192;
    stream_drop_policy = Bqueue.Block;
    analysis_budget = None;
    breaker = None;
    degrade = false;
    confirm = None;
    static_refute = false;
  }

let with_honeypots honeypots t = { t with honeypots }
let with_unused unused t = { t with unused }
let with_templates templates t = { t with templates }
let with_classification classification_enabled t = { t with classification_enabled }
let with_extraction extraction_enabled t = { t with extraction_enabled }
let with_reassembly reassemble t = { t with reassemble }
let with_verdict_cache verdict_cache_size t = { t with verdict_cache_size }
let with_scan_threshold scan_threshold t = { t with scan_threshold }
let with_min_payload min_payload t = { t with min_payload }
let with_flow_alert_cache flow_alert_cache_size t = { t with flow_alert_cache_size }
let with_stream_queue stream_queue_capacity t = { t with stream_queue_capacity }
let with_stream_policy stream_drop_policy t = { t with stream_drop_policy }
let with_budget analysis_budget t = { t with analysis_budget }
let with_breaker breaker t = { t with breaker }
let with_degrade degrade t = { t with degrade }
let with_confirm confirm t = { t with confirm }
let with_static_refute static_refute t = { t with static_refute }

type flag = { key : string; doc : string; arg : [ `Switch of bool | `Value of string ] }

(* The key table: each tunable's key, codec and help text, declared
   once for [--set], config files, hot reload and the CLI's flags.  A
   [switch] is a boolean whose flag sets the opposite of its default. *)
let table =
  let open Spec in
  let some set v = set (Some v) in
  let opt key ~docv ~doc v set = (setter key v set, { key; doc; arg = `Value docv }) in
  let switch key ~doc get set =
    (setter key bool set, { key; doc; arg = `Switch (not (get default)) })
  in
  [
    opt "honeypot" ~docv:"IP" ~doc:"Register a honeypot decoy address (repeatable)."
      (value ~what:"an IPv4 address" Ipaddr.of_string_opt Ipaddr.to_string)
      (fun a t -> with_honeypots (t.honeypots @ [ a ]) t);
    opt "unused" ~docv:"CIDR"
      ~doc:"Declare unused address space for scan detection (repeatable)."
      (value ~what:"a prefix a.b.c.d/len" Ipaddr.prefix_of_string_opt Ipaddr.prefix_to_string)
      (fun p t -> with_unused (t.unused @ [ p ]) t);
    opt "scan_threshold" ~docv:"N"
      ~doc:"Distinct unused addresses before a source is flagged." int with_scan_threshold;
    switch "classify"
      ~doc:"Classification: off analyzes every payload (the paper's \
            false-positive-run configuration)."
      (fun t -> t.classification_enabled) with_classification;
    switch "extract"
      ~doc:"Binary extraction: off hands whole payloads to the disassembler \
            (reference-[5] style)."
      (fun t -> t.extraction_enabled) with_extraction;
    opt "min_payload" ~docv:"N" ~doc:"Payloads shorter than N bytes are never analyzed."
      int with_min_payload;
    switch "reassemble"
      ~doc:"Track TCP flows from suspicious sources and analyze the \
            reassembled stream."
      (fun t -> t.reassemble) with_reassembly;
    opt "verdict_cache" ~docv:"N" ~doc:"Verdict cache capacity (0 disables)." int
      with_verdict_cache;
    opt "flow_alert_cache" ~docv:"N" ~doc:"Per-flow alert-dedup table capacity (stream mode)."
      int with_flow_alert_cache;
    opt "queue" ~docv:"N" ~doc:"Per-worker admission queue capacity (stream mode)." int
      with_stream_queue;
    opt "drop_policy" ~docv:"POLICY"
      ~doc:"Full-queue behaviour in stream mode: block (lossless backpressure), \
            drop_newest or drop_oldest; shed packets are counted as \
            sanids_shed_total."
      (codec { parse = Bqueue.policy_of_string_result; print = Bqueue.policy_to_string })
      with_stream_policy;
    opt "budget" ~docv:"SPEC"
      ~doc:"Per-packet analysis work budget: default or \
            bytes=N,insns=N,steps=N,deadline=S - the adversarial-load ceiling \
            on extraction, disassembly and matching.  Truncated analyses are \
            counted as sanids_budget_truncated_total."
      (codec Budget.limits_spec) (some with_budget);
    opt "breaker" ~docv:"SPEC"
      ~doc:"Per-template circuit breaker: default or fails=N,cooldown=N,max=N \
            (cooldowns counted in analyzed packets).  Open transitions are \
            counted as sanids_breaker_open_total."
      (codec Breaker.config_spec) (some with_breaker);
    switch "degrade"
      ~doc:"When analysis is budget-truncated or templates are held open by \
            the breaker, fall back to the cheap baseline pattern pass instead \
            of silently reporting less; degraded alerts carry a [degraded] \
            marker and sanids_degraded_total counts the fallbacks."
      (fun t -> t.degrade) with_degrade;
    opt "confirm" ~docv:"SPEC"
      ~doc:"Dynamic confirmation: default or steps=N,syscalls=N,written=N,arena=N.  \
            Every matcher hit is executed in the sandboxed emulator; refuted \
            matches are demoted (no alert), confirmed ones marked, outcomes \
            counted as sanids_confirm_total."
      (codec Sanids_confirm.Confirm.config_spec) (some with_confirm);
    switch "static_refute"
      ~doc:"Abstract refutation pre-stage of confirmation: before each emulator \
            run, execute the hit abstractly over an interval domain under the \
            same budgets and demote hits that provably cannot confirm without \
            ever entering the emulator (counted as \
            sanids_confirm_total{outcome=static_refuted}).  Sound: verdicts \
            are unchanged, only emulator calls are avoided."
      (fun t -> t.static_refute) with_static_refute;
  ]

let fields = List.map fst table
let flags = List.map snd table
let spec_keys = Spec.keys fields
let of_spec = Spec.assignment "config" fields

let of_lines lines =
  Result.map (List.fold_left (fun acc f t -> f (acc t)) Fun.id) (Spec.lines of_spec lines)

let of_file path =
  Result.bind (File.read path) (fun text ->
      Result.map_error (Printf.sprintf "%s: %s" path) (of_lines (String.split_on_char '\n' text)))

module Finding = Sanids_staticlint.Finding

(* Finding order mirrors the historical short-circuit order of
   [validate], which reports the first Error's message unchanged. *)
let lint t =
  let fs = ref [] in
  let emit code severity message =
    fs := Finding.v ~code ~severity ~subject:"config" message :: !fs
  in
  if t.scan_threshold <= 0 then
    emit "SL201" Finding.Error
      (Printf.sprintf "scan_threshold must be positive (got %d)"
         t.scan_threshold);
  if t.verdict_cache_size < 0 then
    emit "SL201" Finding.Error
      (Printf.sprintf "verdict_cache_size must be >= 0 (got %d)"
         t.verdict_cache_size);
  if t.flow_alert_cache_size <= 0 then
    emit "SL201" Finding.Error
      (Printf.sprintf "flow_alert_cache_size must be positive (got %d)"
         t.flow_alert_cache_size);
  if t.min_payload < 0 then
    emit "SL201" Finding.Error
      (Printf.sprintf "min_payload must be >= 0 (got %d)" t.min_payload);
  if t.stream_queue_capacity < 1 then
    emit "SL201" Finding.Error
      (Printf.sprintf "stream_queue_capacity must be positive (got %d)"
         t.stream_queue_capacity);
  (match Option.map Budget.validate_limits t.analysis_budget with
  | Some (Error m) -> emit "SL202" Finding.Error m
  | Some (Ok _) | None -> ());
  (match Option.map Breaker.validate_config t.breaker with
  | Some (Error m) -> emit "SL203" Finding.Error m
  | Some (Ok _) | None -> ());
  if t.degrade && t.analysis_budget = None && t.breaker = None then
    emit "SL204" Finding.Error
      "degrade requires an analysis budget or a breaker (nothing can trigger \
       degradation otherwise)";
  if t.verdict_cache_size > 0 && t.verdict_cache_size < 64 then
    emit "SL205" Finding.Warn
      (Printf.sprintf
         "verdict_cache_size %d is too small to survive an outbreak's \
          payload diversity; use 0 (off) or >= 64"
         t.verdict_cache_size);
  if (not t.degrade) && (t.analysis_budget <> None || t.breaker <> None) then
    emit "SL206" Finding.Warn
      "an analysis budget or breaker is set without degrade: truncated \
       packets are silently under-analyzed instead of falling back to the \
       baseline pass";
  (match Option.map Sanids_confirm.Confirm.validate_config t.confirm with
  | Some (Error m) -> emit "SL207" Finding.Error m
  | Some (Ok _) | None -> ());
  (match t.confirm with
  | Some c when c.Sanids_confirm.Confirm.max_steps > 1_000_000 ->
      emit "SL208" Finding.Warn
        (Printf.sprintf
           "confirm step budget %d is far above any real decoder's run \
            length; a hostile packet can hold the analysis thread for the \
            whole budget"
           c.Sanids_confirm.Confirm.max_steps)
  | Some _ | None -> ());
  if t.static_refute && t.confirm = None then
    emit "SL209" Finding.Error
      "static_refute is a pre-stage of dynamic confirmation and needs \
       confirm=... set (alone there is no verdict stage to short-circuit)";
  List.rev !fs

let validate t =
  match
    List.find_opt (fun f -> f.Finding.severity = Finding.Error) (lint t)
  with
  | Some f -> Error f.Finding.message
  | None -> Ok t
