module Classifier = Sanids_classify.Classifier
module Extractor = Sanids_extract.Extractor
module Obs = Sanids_obs
module Confirm = Sanids_confirm.Confirm

let log_src = Logs.Src.create "sanids.pipeline" ~doc:"semantic NIDS pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type verdict = {
  frame : Extractor.frame;
  match_ : Matcher.result;
  cached : bool;  (* served from the verdict cache *)
  degraded : bool;  (* produced by the baseline fallback pass *)
  confirmation : Confirm.outcome option;
      (* what the dynamic-confirmation run concluded; [None] when
         confirmation is off or the verdict is degraded (fabricated
         entry offsets are not worth executing) *)
}

type analysis = { verdicts : verdict list; outcome : Budget.outcome; degraded : bool }

(* Pre-resolved registry handles for the per-packet hot path. *)
type counters = {
  packets : Obs.Registry.counter;
  bytes : Obs.Registry.counter;
  suspicious : Obs.Registry.counter;
  prefilter_hits : Obs.Registry.counter;
  frames : Obs.Registry.counter;
  frame_bytes : Obs.Registry.counter;
  alerts : Obs.Registry.counter;
  vcache_hits : Obs.Registry.counter;
  vcache_misses : Obs.Registry.counter;
  vcache_evictions : Obs.Registry.counter;
  flow_evictions : Obs.Registry.counter;
}

(* Stage timers, resolved once: Span.with_ re-derives the metric name
   and help string per call, which the per-packet path cannot afford.
   Each site opens a span with [Span.start] and closes it with
   [Span.stop], on the exception path too, with no closure.  Classify
   costs about as much as its two clock reads, so it is timed on about
   1 call in [Span.sample_period]; the other stages on every call. *)
type stages = {
  st_classify : Obs.Span.stage;
  st_gate : Obs.Span.stage;
  st_cache : Obs.Span.stage;
  st_extract : Obs.Span.stage;
  st_match : Obs.Span.stage;
  st_static : Obs.Span.stage;
  st_confirm : Obs.Span.stage;
  st_analyze : Obs.Span.stage;
}

type t = {
  cfg : Config.t;
  classifier : Classifier.t;
  reg : Obs.Registry.t;
  m : counters;
  st : stages;
  names : string list;  (* distinct template names, in template order *)
  step_cap : int option;
  vcache_entries : Obs.Registry.gauge;
  flow_entries : Obs.Registry.gauge;
  breaker : Breaker.t option;
  reasm : Flow.reassembler option;
  flow_alerted : (string, unit) Lru.t;
      (* flow-key ^ template pairs already alerted, for stream mode;
         bounded so long replays cannot grow it without limit *)
  cache : (string, verdict list) Lru.t option;
      (* analyzed buffer -> deduplicated verdicts, stored already marked
         [cached]; keys are the full buffer bytes, so a hit is exact
         content equality, never a hash collision *)
}

let counters_of reg =
  let c name help = Obs.Registry.counter reg ~help name in
  {
    packets = c "sanids_packets_total" "packets processed";
    bytes = c "sanids_bytes_total" "payload bytes processed";
    suspicious = c "sanids_classified_suspicious_total" "packets classified suspicious";
    prefilter_hits = c "sanids_prefilter_hits_total" "payloads past the cheap suspicion gate";
    frames = c "sanids_frames_total" "binary frames handed to the disassembler";
    frame_bytes = c "sanids_frame_bytes_total" "bytes handed to the disassembler";
    alerts = c "sanids_alerts_total" "alerts raised";
    vcache_hits = c "sanids_verdict_cache_hits_total" "analyses served from the verdict cache";
    vcache_misses = c "sanids_verdict_cache_misses_total" "analyses that ran in full";
    vcache_evictions = c "sanids_verdict_cache_evictions_total" "verdict cache capacity evictions";
    flow_evictions = c "sanids_flow_alerted_evictions_total" "flow alert-dedup table evictions";
  }

let distinct_names templates =
  List.fold_left
    (fun acc (tp : Template.t) ->
      if List.mem tp.Template.name acc then acc else tp.Template.name :: acc)
    [] templates
  |> List.rev

let create ?tracer (cfg : Config.t) =
  let cfg =
    match Config.validate cfg with
    | Ok cfg -> cfg
    | Error msg -> invalid_arg ("Pipeline.create: " ^ msg)
  in
  let reg = Obs.Registry.create () in
  let stage ?sampled name = Obs.Span.stage ?tracer ?sampled reg name in
  {
    cfg;
    classifier =
      Classifier.create ~metrics:reg ~honeypots:cfg.Config.honeypots
        ~unused:cfg.Config.unused ~scan_threshold:cfg.Config.scan_threshold
        ~enabled:cfg.Config.classification_enabled ();
    reg;
    m = counters_of reg;
    st =
      {
        st_classify = stage ~sampled:true "classify";
        st_gate = stage "gate";
        st_cache = stage "cache";
        st_extract = stage "extract";
        st_match = stage "match";
        st_static = stage "static_refute";
        st_confirm = stage "confirm";
        st_analyze = stage "analyze";
      };
    names = distinct_names cfg.Config.templates;
    (* the per-template step cap only exists to feed the breaker; without
       one the shared budget (if any) is the sole bound *)
    step_cap =
      Option.map
        (fun _ ->
          match cfg.Config.analysis_budget with
          | Some l -> l.Budget.max_match_steps
          | None -> Budget.default_limits.Budget.max_match_steps)
        cfg.Config.breaker;
    vcache_entries =
      Obs.Registry.gauge reg ~help:"verdict cache occupancy"
        "sanids_verdict_cache_entries";
    flow_entries =
      Obs.Registry.gauge reg ~help:"flow alert-dedup table occupancy"
        "sanids_flow_alerted_entries";
    breaker =
      Option.map (fun bc -> Breaker.create ~metrics:reg bc) cfg.Config.breaker;
    reasm = (if cfg.Config.reassemble then Some (Flow.create_reassembler ()) else None);
    flow_alerted = Lru.create cfg.Config.flow_alert_cache_size;
    cache =
      (if cfg.Config.verdict_cache_size > 0 then
         Some (Lru.create cfg.Config.verdict_cache_size)
       else None);
  }

let count_truncated t reason =
  Obs.Registry.incr
    (Obs.Registry.counter t.reg
       ~help:"analyses cut short by the per-packet budget"
       ~labels:[ ("reason", Budget.reason_to_string reason) ]
       "sanids_budget_truncated_total")

let count_degraded t stage =
  Obs.Registry.incr
    (Obs.Registry.counter t.reg
       ~help:"analyses that fell back to the degraded baseline pass"
       ~labels:[ ("stage", stage) ]
       "sanids_degraded_total")

(* Registered lazily per outcome label, like the truncation/degradation
   counters: a confirmation-off pipeline exports no confirm series. *)
let count_confirm t outcome =
  Obs.Registry.incr
    (Obs.Registry.counter t.reg ~help:"dynamic-confirmation outcomes"
       ~labels:[ ("outcome", Confirm.label outcome) ]
       "sanids_confirm_total")

(* ------------------------------------------------------------------ *)
(* The analysis of one buffer: a fixed, ordered list of stages over one
   mutable record.  Each stage decides for itself whether it has work;
   one with nothing to do returns at once and opens no span.  The gate
   and a cache hit settle the analysis, and the stages after them do
   not run. *)

type work = {
  buffer : Slice.t;
  mutable settled : bool;
  mutable key : string;  (* the verdict-cache key, once looked up *)
  mutable templates : Template.t list;  (* admitted by the breakers *)
  mutable excluded : string list;  (* held out by open breakers *)
  mutable tripped : string list;  (* hit their per-template step cap *)
  mutable verdicts : verdict list;
  mutable outcome : Budget.outcome;
  mutable degraded : bool;
}

(* The suspicion gate, ahead of the verdict cache: a buffer it rejects
   (most of benign traffic) is never copied, hashed, looked up or
   cached, and a repeated buffer that passes pays the gate again before
   its hit.  With extraction off every buffer goes to the matcher. *)
let gate t w =
  let suspicious =
    (not t.cfg.Config.extraction_enabled)
    ||
    let st = t.st.st_gate in
    let t0 = Obs.Span.start st in
    match Extractor.suspicious w.buffer with
    | s ->
        Obs.Span.stop st t0;
        s
    | exception e ->
        Obs.Span.stop st t0;
        raise e
  in
  if suspicious then Obs.Registry.incr t.m.prefilter_hits else w.settled <- true

(* A hit replays the stored verdicts and skips every later stage, the
   breaker's bookkeeping included. *)
let cache_lookup t w =
  match t.cache with
  | None -> ()
  | Some cache -> (
      let st = t.st.st_cache in
      let t0 = Obs.Span.start st in
      (* keyed on materialized bytes (content equality, not view
         identity): free when the buffer is a whole view, and a cached
         buffer must own its bytes anyway *)
      w.key <- Slice.to_string w.buffer;
      match Lru.find cache w.key with
      | Some verdicts ->
          Obs.Span.stop st t0;
          Obs.Registry.incr t.m.vcache_hits;
          w.verdicts <- verdicts;
          w.settled <- true
      | None ->
          Obs.Span.stop st t0;
          Obs.Registry.incr t.m.vcache_misses
      | exception e ->
          Obs.Span.stop st t0;
          raise e)

let breaker_admit t w =
  match t.breaker with
  | None -> ()
  | Some br ->
      let excluded = List.filter (fun n -> not (Breaker.admit br n)) t.names in
      if excluded <> [] then begin
        w.excluded <- excluded;
        w.templates <-
          List.filter
            (fun (tp : Template.t) -> not (List.mem tp.Template.name excluded))
            w.templates
      end

(* Extraction, then a template scan of each frame under one per-packet
   budget; the matcher adds its decode-memo and budget counters straight
   into the pipeline registry. *)
let extract_match t w =
  let budget = Option.map Budget.start t.cfg.Config.analysis_budget in
  let frames =
    if t.cfg.Config.extraction_enabled then begin
      let st = t.st.st_extract in
      let t0 = Obs.Span.start st in
      match Extractor.extract ?budget ~metrics:t.reg w.buffer with
      | frames ->
          Obs.Span.stop st t0;
          frames
      | exception e ->
          Obs.Span.stop st t0;
          raise e
    end
    else
      match budget with
      | Some b when not (Budget.take_bytes b (Slice.length w.buffer)) -> []
      | Some _ | None ->
          [ { Extractor.off = 0; data = w.buffer; origin = Extractor.Raw_binary } ]
  in
  let scan (frame : Extractor.frame) =
    let data = frame.Extractor.data in
    Obs.Registry.incr t.m.frames;
    Obs.Registry.add t.m.frame_bytes (Slice.length data);
    let st = t.st.st_match in
    let t0 = Obs.Span.start st in
    let report =
      match
        Matcher.scan_report_slice ?budget ?step_cap:t.step_cap ~metrics:t.reg
          ~templates:w.templates data
      with
      | report ->
          Obs.Span.stop st t0;
          report
      | exception e ->
          Obs.Span.stop st t0;
          raise e
    in
    w.tripped <- report.Matcher.tripped @ w.tripped;
    List.map
      (fun match_ -> { frame; match_; cached = false; degraded = false; confirmation = None })
      report.Matcher.results
  in
  w.verdicts <- List.concat_map scan frames;
  match budget with
  | None -> ()
  | Some b -> (
      match Budget.outcome b with
      | Budget.Complete -> ()
      | Budget.Truncated r as o ->
          count_truncated t r;
          w.outcome <- o)

let breaker_record t w =
  match t.breaker with
  | None -> ()
  | Some br ->
      List.iter
        (fun n ->
          if not (List.mem n w.excluded) then
            Breaker.record br n ~tripped:(List.mem n w.tripped))
        t.names;
      Breaker.tick br

(* One verdict per template name, the first found. *)
let dedup _t w =
  match w.verdicts with
  | [] | [ _ ] -> ()
  | verdicts ->
      let seen v kept =
        List.exists
          (fun k -> String.equal k.match_.Matcher.template v.match_.Matcher.template)
          kept
      in
      w.verdicts <-
        List.rev
          (List.fold_left
             (fun kept v -> if seen v kept then kept else v :: kept)
             [] verdicts)

(* The second verdict stage: execute each match in the sandboxed
   emulator, seeded from its structured evidence — the frame's bytes at
   code_base, entry at the matched offset.  It runs before [degrade], so
   degraded verdicts (fabricated entries) are never executed. *)
let confirm t w =
  match t.cfg.Config.confirm with
  | None -> ()
  | Some _ when w.verdicts = [] -> ()
  | Some config -> (
      let confirm_one (v : verdict) =
        let code = Slice.to_string v.frame.Extractor.data in
        let entry = (Matcher.evidence v.match_).Matcher.ev_entry in
        (* abstract pre-stage: when it proves the emulator must refute,
           skip the emulator entirely *)
        let refutation =
          if t.cfg.Config.static_refute then begin
            let st = t.st.st_static in
            let t0 = Obs.Span.start st in
            match Sanids_confirm.Static_refute.run ~config ~code ~entry () with
            | r ->
                Obs.Span.stop st t0;
                r
            | exception e ->
                Obs.Span.stop st t0;
                raise e
          end
          else None
        in
        let outcome =
          match refutation with
          | Some reason -> Confirm.Statically_refuted reason
          | None -> Confirm.run ~config ~code ~entry ()
        in
        count_confirm t outcome;
        { v with confirmation = Some outcome }
      in
      let st = t.st.st_confirm in
      let t0 = Obs.Span.start st in
      match List.map confirm_one w.verdicts with
      | verdicts ->
          Obs.Span.stop st t0;
          w.verdicts <- verdicts
      | exception e ->
          Obs.Span.stop st t0;
          raise e)

(* Conjunctive pattern matching for the degraded pass: a candidate
   template counts as (tentatively) present when every one of its
   literal [data] patterns occurs in the buffer, and is reported at the
   leftmost occurrence of any of them.  Only templates carrying data
   patterns can be recovered this way. *)
let degraded_verdicts t (buffer : Slice.t) candidates =
  List.filter_map
    (fun name ->
      match
        List.find_opt
          (fun (tp : Template.t) -> tp.Template.name = name && tp.Template.data <> [])
          t.cfg.Config.templates
      with
      | None -> None
      | Some tp ->
          let found =
            List.filter_map
              (fun needle -> Search.find_slice ~needle buffer)
              tp.Template.data
          in
          if List.compare_lengths found tp.Template.data < 0 then None
          else
            let entry = List.fold_left min max_int found in
            Some
              {
                frame = { Extractor.off = 0; data = buffer; origin = Extractor.Raw_binary };
                match_ =
                  { Matcher.template = name; entry; offsets = []; reg_bindings = [];
                    const_bindings = [] };
                cached = false;
                degraded = true;
                confirmation = None;
              })
    candidates

(* With [Config.degrade], a truncated scan gives every template not yet
   matched the cheap pass, and a complete one gives it to the templates
   open breakers held out. *)
let degrade t w =
  let fallback =
    if not t.cfg.Config.degrade then None
    else
      match w.outcome with
      | Budget.Truncated r ->
          let matched n =
            List.exists (fun v -> String.equal v.match_.Matcher.template n) w.verdicts
          in
          Some (Budget.reason_to_string r, List.filter (fun n -> not (matched n)) t.names)
      | Budget.Complete when w.excluded <> [] -> Some ("breaker", w.excluded)
      | Budget.Complete -> None
  in
  match fallback with
  | None -> ()
  | Some (stage, candidates) ->
      count_degraded t stage;
      w.verdicts <- w.verdicts @ degraded_verdicts t w.buffer candidates;
      w.degraded <- true

(* A pristine analysis (budget never tripped, no template abandoned, no
   breaker exclusion, no fallback) is a pure function of the buffer
   bytes, so replaying it for byte-identical buffers — the worm-outbreak
   shape — cannot change any verdict.  Anything less is never cached:
   the next identical buffer deserves a fresh attempt under whatever
   fuel and breaker state then hold.  With confirmation on, only
   analyses whose every verdict the emulator confirmed are replayable:
   a refuted match must not be resurrected by a later hit. *)
let cache_admit t w =
  match t.cache with
  | None -> ()
  | Some cache ->
      let confirmed v =
        match v.confirmation with Some o -> Confirm.confirmed o | None -> false
      in
      if
        w.outcome = Budget.Complete
        && (not w.degraded) && w.excluded = [] && w.tripped = []
        && (Option.is_none t.cfg.Config.confirm || List.for_all confirmed w.verdicts)
      then begin
        let st = t.st.st_cache in
        let t0 = Obs.Span.start st in
        let before = Lru.evictions cache in
        match Lru.add cache w.key (List.map (fun v -> { v with cached = true }) w.verdicts) with
        | () ->
            Obs.Span.stop st t0;
            Obs.Registry.add t.m.vcache_evictions (Lru.evictions cache - before)
        | exception e ->
            Obs.Span.stop st t0;
            raise e
      end

let stages =
  [ gate; cache_lookup; breaker_admit; extract_match; breaker_record; dedup;
    confirm; degrade; cache_admit ]

let rec run t w = function
  | [] -> ()
  | stage :: rest ->
      stage t w;
      if not w.settled then run t w rest

let analyze_report_slice t buffer =
  let st = t.st.st_analyze in
  let t0 = Obs.Span.start st in
  let w =
    { buffer; settled = false; key = ""; templates = t.cfg.Config.templates;
      excluded = []; tripped = []; verdicts = []; outcome = Budget.Complete;
      degraded = false }
  in
  match run t w stages with
  | () ->
      Obs.Span.stop st t0;
      { verdicts = w.verdicts; outcome = w.outcome; degraded = w.degraded }
  | exception e ->
      Obs.Span.stop st t0;
      raise e

let analyze_report t buffer = analyze_report_slice t (Slice.of_string buffer)

(* In stream mode the analyzed buffer is the flow's reassembled prefix and
   alerts deduplicate per flow; otherwise it is the packet payload.  The
   payload view is built here, for a suspicious packet, and only once. *)
let buffer_for t packet =
  match t.reasm with
  | Some r when Packet.is_tcp packet && Packet.payload_length packet > 0 -> (
      match Flow.push r packet with
      | Some stream -> Some (Slice.of_string stream, Flow.key_of_packet packet)
      | None -> None (* waiting for a gap to fill; nothing new to analyze *))
  | Some _ | None -> Some (Packet.payload packet, None)

let process_packet t packet =
  Obs.Registry.incr t.m.packets;
  Obs.Registry.add t.m.bytes (Packet.payload_length packet);
  let st = t.st.st_classify in
  let t0 = Obs.Span.start st in
  let verdict =
    match Classifier.classify t.classifier packet with
    | v ->
        Obs.Span.stop st t0;
        v
    | exception e ->
        Obs.Span.stop st t0;
        raise e
  in
  match verdict with
  | Classifier.Benign -> []
  | Classifier.Suspicious reason -> (
      Obs.Registry.incr t.m.suspicious;
      Log.debug (fun m ->
          m "suspicious packet from %a (%s), %d payload bytes" Ipaddr.pp
            (Packet.src packet)
            (Classifier.reason_to_string reason)
            (Packet.payload_length packet));
      match buffer_for t packet with
      | None -> []
      | Some (buffer, flow_key) ->
          if Slice.length buffer < t.cfg.Config.min_payload then []
          else begin
            let verdicts = (analyze_report_slice t buffer).verdicts in
            let fresh (v : verdict) =
              match flow_key with
              | None -> true
              | Some key -> (
                  let tag =
                    Flow.key_to_string key ^ "|" ^ v.match_.Matcher.template
                  in
                  match Lru.find t.flow_alerted tag with
                  | Some () -> false
                  | None ->
                      let before = Lru.evictions t.flow_alerted in
                      Lru.add t.flow_alerted tag ();
                      Obs.Registry.add t.m.flow_evictions
                        (Lru.evictions t.flow_alerted - before);
                      true)
            in
            (* a match the emulator refuted was a false positive: demote
               it before it can claim a flow-dedup slot or alert *)
            let refuted v =
              match v.confirmation with
              | Some (Confirm.Refuted _ | Confirm.Statically_refuted _) -> true
              | Some _ | None -> false
            in
            let alerts =
              List.filter_map
                (fun v ->
                  if (not (refuted v)) && fresh v then
                    Some
                      (Alert.make ~degraded:v.degraded
                         ~confirmed:
                           (match v.confirmation with
                           | Some o -> Confirm.confirmed o
                           | None -> false)
                         ~packet ~reason ~frame:v.frame ~result:v.match_ ())
                  else None)
                verdicts
            in
            Obs.Registry.add t.m.alerts (List.length alerts);
            List.iter
              (fun a -> Log.info (fun m -> m "%s" (Alert.to_line a)))
              alerts;
            alerts
          end)

let process_packets t packets = List.concat_map (process_packet t) packets

let analyze_payload t payload =
  List.map (fun v -> v.match_) (analyze_report t payload).verdicts

let registry t = t.reg

let snapshot t =
  (* occupancy gauges are sampled, not event-driven *)
  Obs.Registry.set_gauge t.vcache_entries
    (match t.cache with
    | Some c -> float_of_int (Lru.length c)
    | None -> 0.0);
  Obs.Registry.set_gauge t.flow_entries (float_of_int (Lru.length t.flow_alerted));
  Obs.Registry.snapshot t.reg

let stats t = Stats.of_snapshot (snapshot t)
