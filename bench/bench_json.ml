(* Machine-readable bench trajectory (`--json OUT`).

   Emits one stable JSON document per run — packets/sec on the
   outbreak-replay and stream-shedding workloads, per-stage latency
   quantiles read back from the pipeline's own obs histograms, and
   minor-heap allocation words/packet via [Gc.minor_words].  The
   committed BENCH_<pr>.json is the trajectory point this PR lands;
   check_bench.ml compares a fresh smoke run against it so a future
   change that tanks throughput fails `@bench-json` loudly instead of
   rotting silently in text output. *)

open Sanids_net
open Sanids_nids
open Sanids_exploits
module Obs = Sanids_obs
module Epidemic = Sanids_epidemic.Model

let schema = "sanids-bench/1"
let pr = 10

(* Number format: deterministic, %.6g keeps the file diffable without
   drowning it in noise. *)
let jfloat f =
  Json.Number
    (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
     else Printf.sprintf "%.6g" f)

(* ------------------------------------------------------------------ *)

let stage_names = [ "classify"; "extract"; "match"; "analyze" ]

let stage_json snap name =
  let h = Obs.Snapshot.histogram snap ("sanids_stage_" ^ name ^ "_seconds") in
  Json.Obj
    [
      ("count", Json.int (Obs.Histogram.count h));
      ("mean_s", jfloat (Obs.Histogram.mean h));
      ("p50_s", jfloat (Obs.Histogram.quantile h 0.5));
      ("p95_s", jfloat (Obs.Histogram.quantile h 0.95));
    ]

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ------------------------------------------------------------------ *)
(* Workload 1: outbreak replay.  The same few exploit payloads delivered
   over and over (classification off, verdict cache on) — the
   steady-state the zero-copy path is for. *)

let outbreak_variants rng =
  [|
    Exploit_gen.http_exploit rng
      ~shellcode:(Shellcodes.find "classic").Shellcodes.code;
    Code_red.request ();
    Iis_asp.request ();
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code;
  |]

let outbreak_replay ~packets =
  let rng = Rng.create 0x0B0B0B0BL in
  let slices = Array.map Slice.of_string (outbreak_variants rng) in
  let nids = Pipeline.create (Config.default |> Config.with_classification false) in
  let alerts = ref 0 in
  let w0 = Gc.minor_words () in
  let (), dt =
    time (fun () ->
        for i = 0 to packets - 1 do
          let r =
            Pipeline.analyze_report_slice nids slices.(i mod Array.length slices)
          in
          alerts := !alerts + List.length r.Pipeline.verdicts
        done)
  in
  let words_per_packet = (Gc.minor_words () -. w0) /. float_of_int packets in
  let snap = Pipeline.snapshot nids in
  Json.Obj
    [
      ("packets", Json.int packets);
      ("alerts", Json.int !alerts);
      ("seconds", jfloat dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max dt 1e-9));
      ("minor_words_per_packet", jfloat words_per_packet);
      ("stages", Json.Obj (List.map (fun s -> (s, stage_json snap s)) stage_names));
    ]

(* ------------------------------------------------------------------ *)
(* Workload 2: stream shedding.  Benign traffic through the parallel
   stream path — flow-hash sharding (classification off), batched
   admission, a small queue with a drop policy so shedding is
   exercised and counted. *)

let clients = Ipaddr.prefix_of_string "192.168.1.0/24"
let servers = Ipaddr.prefix_of_string "192.168.2.0/24"

let stream_shedding ~packets =
  let domains = min 4 (max 1 (Domain.recommended_domain_count ())) in
  let capacity = 256 in
  let policy = Bqueue.Drop_oldest in
  let cfg =
    Config.default
    |> Config.with_classification false
    |> Config.with_stream_queue capacity
    |> Config.with_stream_policy policy
  in
  let rng = Rng.create 0x5EED_CAFEL in
  let seq =
    Sanids_workload.Benign_gen.seq rng ~n:packets ~t0:0.0 ~clients ~servers
  in
  let alerts = ref 0 in
  let snap, dt =
    time (fun () ->
        Parallel.process_seq_snapshot ~domains cfg seq (fun al ->
            alerts := !alerts + List.length al))
  in
  let stats = Stats.of_snapshot snap in
  Json.Obj
    [
      ("packets", Json.int packets);
      ("domains", Json.int domains);
      ("queue_capacity", Json.int capacity);
      ("policy", Json.String (Bqueue.policy_to_string policy));
      ("processed", Json.int stats.Stats.packets);
      ("shed", Json.int stats.Stats.shed);
      ("alerts", Json.int !alerts);
      ("seconds", jfloat dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max dt 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Workload 3: pure decode.  pcap record -> Ethernet -> IPv4 -> TCP with
   nothing downstream — the layer the slice refactor rewrote, and the
   cleanest allocation number to track. *)

let decode_only ~packets =
  let rng = Rng.create 0xDEC0DEL in
  let pkts =
    Sanids_workload.Benign_gen.packets rng ~n:256 ~t0:0.0 ~clients ~servers
  in
  let records =
    Array.of_list
      (List.map
         (fun p ->
           let raw = Sanids_net.Ethernet.wrap_ipv4 (Packet.to_bytes p) in
           {
             Sanids_pcap.Pcap.ts = 0.0;
             orig_len = String.length raw;
             data = Slice.of_string raw;
           })
         pkts)
  in
  let n = Array.length records in
  let sink = ref 0 in
  let w0 = Gc.minor_words () in
  let (), dt =
    time (fun () ->
        for i = 0 to packets - 1 do
          match
            Sanids_ingest.Ingest.decode_record
              ~linktype:Sanids_pcap.Pcap.linktype_ethernet
              records.(i mod n)
          with
          | Ok p -> sink := !sink + Slice.length (Packet.payload p)
          | Error _ -> ()
        done)
  in
  let words_per_packet = (Gc.minor_words () -. w0) /. float_of_int packets in
  ignore !sink;
  Json.Obj
    [
      ("packets", Json.int packets);
      ("seconds", jfloat dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max dt 1e-9));
      ("minor_words_per_packet", jfloat words_per_packet);
    ]

(* ------------------------------------------------------------------ *)
(* Workload 4: serve steady state.  The same benign stream, but through
   the whole daemon engine — feeder control polls, source framing,
   epoch retire, reconciliation — so the row prices the serving path's
   overhead against the bare stream number above. *)

let serve_steady_state ~packets =
  let domains = min 4 (max 1 (Domain.recommended_domain_count ())) in
  let rng = Rng.create 0x5E12_7EADL in
  let pkts =
    Sanids_workload.Benign_gen.packets rng ~n:packets ~t0:0.0 ~clients ~servers
  in
  let path = Filename.temp_file "sanids_bench_serve" ".pcap" in
  Sanids_pcap.Pcap.write_file path (Sanids_pcap.Pcap.of_packets pkts);
  let options =
    {
      Sanids_serve.Serve.default_options with
      source = path;
      base = Config.default |> Config.with_classification false;
      domains = Some domains;
      install_signals = false;
    }
  in
  let result, dt = time (fun () -> Sanids_serve.Serve.run options) in
  (try Sys.remove path with Sys_error _ -> ());
  let reconciled = match result with Ok () -> true | Error _ -> false in
  Json.Obj
    [
      ("packets", Json.int packets);
      ("domains", Json.int domains);
      ("reconciled", Json.Bool reconciled);
      ("seconds", jfloat dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max dt 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Workload 5: confirmation overhead.  A decoder corpus — ADMmutate in
   both families plus staged, and Clet — replayed through the pipeline
   with dynamic confirmation off, then on.  Every variant must confirm
   (the emulator re-executes the decoder and watches it run its own
   writes); the row prices the opt-in stage against the same scan
   without it.  The verdict cache admits confirmed analyses, so the
   steady-state cost is one emulation per distinct payload. *)

let confirm_variants = 16

let confirm_corpus rng =
  let payload = (Shellcodes.find "classic").Shellcodes.code in
  Array.init confirm_variants (fun i ->
      let code =
        match i mod 4 with
        | 0 ->
            (Sanids_polymorph.Admmutate.generate
               ~family:Sanids_polymorph.Admmutate.Xor_loop rng ~payload)
              .Sanids_polymorph.Admmutate.code
        | 1 ->
            (Sanids_polymorph.Admmutate.generate
               ~family:Sanids_polymorph.Admmutate.Alt_chain rng ~payload)
              .Sanids_polymorph.Admmutate.code
        | 2 ->
            (Sanids_polymorph.Admmutate.generate_staged rng ~payload)
              .Sanids_polymorph.Admmutate.code
        | _ -> (Sanids_polymorph.Clet.generate rng ~payload).Sanids_polymorph.Clet.code
      in
      Slice.of_string code)

let confirm_overhead ~packets =
  let rng = Rng.create 0xC0F1C0F1L in
  let slices = confirm_corpus rng in
  let scan cfg =
    let nids = Pipeline.create cfg in
    let alerts = ref 0 in
    let (), dt =
      time (fun () ->
          for i = 0 to packets - 1 do
            let r =
              Pipeline.analyze_report_slice nids slices.(i mod Array.length slices)
            in
            alerts := !alerts + List.length r.Pipeline.verdicts
          done)
    in
    (Stats.of_snapshot (Pipeline.snapshot nids), !alerts, dt)
  in
  let base = Config.default |> Config.with_classification false in
  let _, off_alerts, off_dt = scan base in
  let on_stats, on_alerts, on_dt =
    scan
      (base
      |> Config.with_confirm (Some Sanids_confirm.Confirm.default_config))
  in
  (* The acceptance bar, enforced where the number is produced: every
     ADMmutate/Clet decoder variant in the corpus must survive dynamic
     confirmation.  A refutation here is a detection regression, not a
     performance number. *)
  if on_stats.Stats.confirmed < confirm_variants then
    failwith
      (Printf.sprintf
         "confirm_overhead: only %d of %d decoder variants confirmed"
         on_stats.Stats.confirmed confirm_variants);
  if on_stats.Stats.refuted > 0 then
    failwith
      (Printf.sprintf "confirm_overhead: %d decoder variants refuted"
         on_stats.Stats.refuted);
  Json.Obj
    [
      ("packets", Json.int packets);
      ("variants", Json.int confirm_variants);
      ("alerts_off", Json.int off_alerts);
      ("alerts_on", Json.int on_alerts);
      ("confirmed", Json.int on_stats.Stats.confirmed);
      ("refuted", Json.int on_stats.Stats.refuted);
      ("inconclusive", Json.int on_stats.Stats.confirm_inconclusive);
      ("seconds_off", jfloat off_dt);
      ( "packets_per_sec_off",
        jfloat (float_of_int packets /. Float.max off_dt 1e-9) );
      ("seconds", jfloat on_dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max on_dt 1e-9));
      ("overhead_ratio", jfloat (on_dt /. Float.max off_dt 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Workload 6: cluster detection latency.  A Code Red outbreak sharded
   across four federated sensors versus the same trace through one
   monolithic pipeline.  Each sensor cuts a snapshot delta per ship
   interval on the packet-timestamp clock; the cut crosses a seeded
   lossy channel (drops, duplicates, reorderings) through the pure
   at-least-once delivery model and folds through the aggregator's
   dedup.  Detection time is the first cut whose merged cluster view
   carries an alert.  The acceptance bar, enforced where the number is
   produced: federation must not detect later than the monolith —
   per-source sharding keeps each infected host on one sensor and the
   dedup view is exact after every cut, so a lossy channel may cost
   retries, never outbreaks.  The epidemic model prices the detection
   time: how many hosts the worm owns by then, and how far before the
   curve's knee the cluster reacts. *)

let cluster_shards = 4
let cluster_ship_every = 2.0

let cluster_epidemic =
  (* Code Red v2 ballpark: 360k vulnerable hosts, 10 probes/s each,
     one initial infection over the full IPv4 space. *)
  {
    Epidemic.population = 360_000;
    address_space = 4294967296.0;
    scan_rate = 10.0;
    initial = 1;
  }

let cluster_outbreak ~benign =
  let rng = Rng.create 0xC1057EL in
  let clients = Ipaddr.prefix_of_string "10.1.0.0/16" in
  let servers = Ipaddr.prefix_of_string "10.2.0.0/16" in
  let unused = Ipaddr.prefix_of_string "10.200.0.0/16" in
  let pkts, _truth =
    Sanids_workload.Worm_gen.code_red_trace rng ~benign ~instances:4
      ~scans_per_instance:6 ~clients ~servers ~unused ~duration:60.0
  in
  (pkts, Config.default |> Config.with_unused [ unused ])

(* Drive [shards] pipelines over the trace on the packet-ts clock,
   shipping every sensor's delta through the faulted channel at each
   cut and folding the aggregator's dedup; returns the first cut time
   whose merged view alerts. *)
let cluster_detect ~shards ~plan ~seed cfg pkts =
  let module C = Sanids_cluster in
  let pipes = Array.init shards (fun _ -> Pipeline.create cfg) in
  let last = Array.make shards Obs.Snapshot.empty in
  let seqs = Array.make shards 0 in
  let chan = Rng.create seed in
  let dedup = ref C.Dedup.empty in
  let detected = ref None in
  let cut at =
    let deltas =
      List.init shards (fun i ->
          let snap = Pipeline.snapshot pipes.(i) in
          let d = Obs.Snapshot.diff ~newer:snap ~older:last.(i) in
          last.(i) <- snap;
          seqs.(i) <- seqs.(i) + 1;
          {
            C.Delta.sensor = Printf.sprintf "s%d" i;
            epoch = 1;
            seq = seqs.(i);
            snapshot = d;
          })
    in
    List.iter
      (fun d -> dedup := fst (C.Dedup.apply !dedup d))
      (C.Fault.deliveries chan plan deltas);
    if
      !detected = None
      && Obs.Snapshot.counter_value (C.Dedup.view !dedup) "sanids_alerts_total"
         > 0
    then detected := Some at
  in
  let next = ref cluster_ship_every in
  List.iter
    (fun p ->
      while p.Packet.ts >= !next do
        cut !next;
        next := !next +. cluster_ship_every
      done;
      ignore
        (Pipeline.process_packet pipes.(Parallel.shard_of_packet cfg p ~shards) p))
    pkts;
  cut !next;
  !detected

let cluster_latency ~packets =
  let pkts, cfg = cluster_outbreak ~benign:packets in
  let n = List.length pkts in
  let plan =
    Sanids_cluster.Fault.of_string_exn "drop=0.3,dup=0.2,reorder=0.2"
  in
  let fed_detect, dt =
    time (fun () ->
        cluster_detect ~shards:cluster_shards ~plan ~seed:0xFA17EDL cfg pkts)
  in
  let mono_detect, _ =
    time (fun () -> cluster_detect ~shards:1 ~plan:[] ~seed:1L cfg pkts)
  in
  let fed, mono =
    match (fed_detect, mono_detect) with
    | Some f, Some m -> (f, m)
    | None, _ -> failwith "cluster_latency: federated cluster missed the outbreak"
    | _, None -> failwith "cluster_latency: monolithic baseline missed the outbreak"
  in
  if fed > mono +. 1e-9 then
    failwith
      (Printf.sprintf
         "cluster_latency: federated detection at %gs is later than \
          monolithic %gs"
         fed mono);
  let infected_at_detect = Epidemic.logistic cluster_epidemic fed in
  let knee_s =
    Epidemic.time_to_count cluster_epidemic (cluster_epidemic.Epidemic.population / 100)
  in
  Json.Obj
    [
      ("packets", Json.int n);
      ("shards", Json.int cluster_shards);
      ("ship_every_s", jfloat cluster_ship_every);
      ("detect_s", jfloat fed);
      ("detect_monolith_s", jfloat mono);
      ("infected_at_detect", jfloat infected_at_detect);
      ("epidemic_knee_s", jfloat knee_s);
      ("seconds", jfloat dt);
      ("packets_per_sec", jfloat (float_of_int n /. Float.max dt 1e-9));
    ]

(* ------------------------------------------------------------------ *)
(* Workload 7: static refutation.  A mixed hit corpus — decoy decoders
   the semantic matcher flags but the emulator refutes (the designed
   false positive), interleaved with the true decoder corpus from the
   confirmation row — replayed through confirmation alone and then
   through confirmation with the abstract-interpretation pre-stage
   (`--static-refute`).  Refutations are never cached, so every decoy
   packet prices a full refutation path: emulation without the
   pre-stage, a static proof with it.  The acceptance bars, enforced
   where the number is produced: verdicts must be identical between the
   two configurations (same alerts, same confirmed count, nothing a
   true decoder loses), and at least half the decoy hits must skip the
   emulator. *)

let static_refute_decoys = 16

let static_refute ~packets =
  let rng = Rng.create 0xAB5112F7L in
  let decoys =
    Array.init static_refute_decoys (fun _ ->
        Slice.of_string
          (Sanids_workload.Adversarial.payload
             ~kind:Sanids_workload.Adversarial.Decoy_decoder ~size:2048 rng))
  in
  let decoders = confirm_corpus rng in
  (* interleave so both families are exercised at every cache state *)
  let slices =
    Array.init
      (Array.length decoys + Array.length decoders)
      (fun i ->
        if i mod 2 = 0 && i / 2 < Array.length decoys then decoys.(i / 2)
        else decoders.((i - 1) / 2 mod Array.length decoders))
  in
  (* count the verdicts the packet path would alert on: a refuted match
     — dynamically or statically — is demoted before alerting *)
  let alertable (v : Pipeline.verdict) =
    match v.Pipeline.confirmation with
    | Some
        ( Sanids_confirm.Confirm.Refuted _
        | Sanids_confirm.Confirm.Statically_refuted _ ) ->
        false
    | Some _ | None -> true
  in
  let scan cfg =
    let nids = Pipeline.create cfg in
    let alerts = ref 0 in
    let (), dt =
      time (fun () ->
          for i = 0 to packets - 1 do
            let r =
              Pipeline.analyze_report_slice nids slices.(i mod Array.length slices)
            in
            alerts :=
              !alerts + List.length (List.filter alertable r.Pipeline.verdicts)
          done)
    in
    (Stats.of_snapshot (Pipeline.snapshot nids), !alerts, dt)
  in
  let confirm_cfg =
    Config.default
    |> Config.with_classification false
    |> Config.with_confirm (Some Sanids_confirm.Confirm.default_config)
  in
  let off_stats, off_alerts, off_dt = scan confirm_cfg in
  let on_stats, on_alerts, on_dt =
    scan (confirm_cfg |> Config.with_static_refute true)
  in
  (* Verdict equivalence: the pre-stage may only change *how* a decoy
     is refuted, never *what* is alerted or confirmed. *)
  if on_alerts <> off_alerts then
    failwith
      (Printf.sprintf
         "static_refute: %d alerts with the pre-stage vs %d without"
         on_alerts off_alerts);
  if on_stats.Stats.confirmed <> off_stats.Stats.confirmed then
    failwith
      (Printf.sprintf
         "static_refute: %d confirmed with the pre-stage vs %d without"
         on_stats.Stats.confirmed off_stats.Stats.confirmed);
  let decoy_hits = on_stats.Stats.static_refuted + on_stats.Stats.refuted in
  let avoided =
    if decoy_hits = 0 then 0.0
    else float_of_int on_stats.Stats.static_refuted /. float_of_int decoy_hits
  in
  if decoy_hits = 0 then failwith "static_refute: no decoy ever hit the matcher";
  if avoided < 0.5 then
    failwith
      (Printf.sprintf
         "static_refute: only %d of %d decoy hits (%.0f%%) skipped the emulator"
         on_stats.Stats.static_refuted decoy_hits (100.0 *. avoided));
  Json.Obj
    [
      ("packets", Json.int packets);
      ("decoys", Json.int static_refute_decoys);
      ("decoders", Json.int (Array.length decoders));
      ("alerts_confirm", Json.int off_alerts);
      ("alerts_static", Json.int on_alerts);
      ("confirmed", Json.int on_stats.Stats.confirmed);
      ("refuted", Json.int on_stats.Stats.refuted);
      ("static_refuted", Json.int on_stats.Stats.static_refuted);
      ("avoided_fraction", jfloat avoided);
      ("seconds_confirm", jfloat off_dt);
      ( "packets_per_sec_confirm",
        jfloat (float_of_int packets /. Float.max off_dt 1e-9) );
      ("seconds", jfloat on_dt);
      ("packets_per_sec", jfloat (float_of_int packets /. Float.max on_dt 1e-9));
    ]

(* ------------------------------------------------------------------ *)

let run ~mode ~out () =
  let replay_packets, stream_packets, decode_packets =
    match mode with
    | `Smoke -> (400, 2_000, 5_000)
    | `Quick -> (2_000, 20_000, 50_000)
    | `Full -> (10_000, 100_000, 200_000)
  in
  let mode_name =
    match mode with `Smoke -> "smoke" | `Quick -> "quick" | `Full -> "full"
  in
  Printf.printf "bench-json: outbreak replay (%d packets)...\n%!" replay_packets;
  let replay = outbreak_replay ~packets:replay_packets in
  Printf.printf "bench-json: stream shedding (%d packets)...\n%!" stream_packets;
  let stream = stream_shedding ~packets:stream_packets in
  Printf.printf "bench-json: decode (%d packets)...\n%!" decode_packets;
  let decode = decode_only ~packets:decode_packets in
  Printf.printf "bench-json: serve steady state (%d packets)...\n%!"
    stream_packets;
  let serve = serve_steady_state ~packets:stream_packets in
  Printf.printf "bench-json: confirm overhead (%d packets)...\n%!"
    replay_packets;
  let confirm = confirm_overhead ~packets:replay_packets in
  Printf.printf "bench-json: cluster latency (%d benign packets)...\n%!"
    replay_packets;
  let cluster = cluster_latency ~packets:replay_packets in
  Printf.printf "bench-json: static refutation (%d packets)...\n%!"
    replay_packets;
  let refute = static_refute ~packets:replay_packets in
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("pr", Json.int pr);
        ("mode", Json.String mode_name);
        ( "workloads",
          Json.Obj
            [
              ("outbreak_replay", replay);
              ("stream_shedding", stream);
              ("decode", decode);
              ("serve_steady_state", serve);
              ("confirm_overhead", confirm);
              ("cluster_latency", cluster);
              ("static_refute", refute);
            ] );
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  Printf.printf "bench-json: wrote %s\n%!" out
