(* Machine-readable bench trajectory (`--json OUT`).

   Emits one stable JSON document per run over the three rows only the
   in-tree bench can produce: drop-policy accounting on the parallel
   stream path, the confirmation stage's on/off overhead, and federated
   versus monolithic detection time.  Per-layer costs and steady-state
   throughput on replay, cold, refutation and serving traffic are
   perfbench's (perfbench/README.md).  Each row runs [k] times in this
   process and records the median packets/sec with its quartiles; the
   newest committed BENCH_<n>.json is the current trajectory point, and
   check_bench.ml gates a fresh smoke run against the spread recorded
   there. *)

open Sanids_net
open Sanids_nids
open Sanids_exploits
module Obs = Sanids_obs
module Epidemic = Sanids_epidemic.Model

let schema = "sanids-bench/2"
let pr = 11

(* Runs per row.  Five keeps a smoke document around a second and
   still gives a median that one slow run cannot move. *)
let k = 5

(* Number format: deterministic, %.6g keeps the file diffable without
   drowning it in noise. *)
let jfloat f =
  Json.Number
    (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
     else Printf.sprintf "%.6g" f)

(* Monotonic: a wall-clock step during a row must not turn into a
   negative or absurd rate. *)
let time f =
  let t0 = Monotonic_clock.now () in
  let r = f () in
  (r, Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0) *. 1e-9)

let rate n dt = float_of_int n /. Float.max dt 1e-9

(* ------------------------------------------------------------------ *)
(* Stream shedding.  Benign traffic through the parallel stream path —
   flow-hash sharding (classification off), batched admission, a small
   queue with a drop policy so shedding is exercised and counted.  The
   acceptance bar, enforced where the number is produced: every packet
   is either processed or shed, no worker fails and benign traffic
   raises nothing.  How many are shed depends on scheduling under
   [Drop_oldest], so the split itself is not pinned. *)

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
  if stats.Stats.packets + stats.Stats.shed <> packets then
    failwith
      (Printf.sprintf "stream_shedding: %d processed + %d shed <> %d packets"
         stats.Stats.packets stats.Stats.shed packets);
  if stats.Stats.worker_failures > 0 then
    failwith
      (Printf.sprintf "stream_shedding: %d worker failures"
         stats.Stats.worker_failures);
  if !alerts > 0 then
    failwith (Printf.sprintf "stream_shedding: %d alerts on benign traffic" !alerts);
  ( rate packets dt,
    [
      ("packets", Json.int packets);
      ("domains", Json.int domains);
      ("queue_capacity", Json.int capacity);
      ("policy", Json.String (Bqueue.policy_to_string policy));
      ("processed", Json.int stats.Stats.packets);
      ("shed", Json.int stats.Stats.shed);
      ("alerts", Json.int !alerts);
      ("seconds", jfloat dt);
    ] )

(* ------------------------------------------------------------------ *)
(* Confirmation overhead.  A decoder corpus — ADMmutate in both
   families plus staged, and Clet — replayed through the pipeline with
   dynamic confirmation off, then on.  Every variant must confirm (the
   emulator re-executes the decoder and watches it run its own writes);
   the row prices the opt-in stage against the same scan without it.
   The verdict cache admits confirmed analyses, so the steady-state
   cost is one emulation per distinct payload. *)

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
  ( rate packets on_dt,
    [
      ("packets", Json.int packets);
      ("variants", Json.int confirm_variants);
      ("alerts_off", Json.int off_alerts);
      ("alerts_on", Json.int on_alerts);
      ("confirmed", Json.int on_stats.Stats.confirmed);
      ("refuted", Json.int on_stats.Stats.refuted);
      ("inconclusive", Json.int on_stats.Stats.confirm_inconclusive);
      ("seconds_off", jfloat off_dt);
      ("packets_per_sec_off", jfloat (rate packets off_dt));
      ("seconds", jfloat on_dt);
      ("overhead_ratio", jfloat (on_dt /. Float.max off_dt 1e-9));
    ] )

(* ------------------------------------------------------------------ *)
(* Cluster detection latency.  A Code Red outbreak sharded across four
   federated sensors versus the same trace through one monolithic
   pipeline.  Each sensor cuts a snapshot delta per ship interval on
   the packet-timestamp clock; the cut crosses a seeded lossy channel
   (drops, duplicates, reorderings) through the pure at-least-once
   delivery model and folds through the aggregator's dedup.  Detection
   time is the first cut whose merged cluster view carries an alert.
   The acceptance bar, enforced where the number is produced:
   federation must not detect later than the monolith — per-source
   sharding keeps each infected host on one sensor and the dedup view
   is exact after every cut, so a lossy channel may cost retries, never
   outbreaks.  The epidemic model prices the detection time: how many
   hosts the worm owns by then, and how far before the curve's knee
   the cluster reacts. *)

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
  let mono_detect = cluster_detect ~shards:1 ~plan:[] ~seed:1L cfg pkts in
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
  ( rate n dt,
    [
      ("packets", Json.int n);
      ("shards", Json.int cluster_shards);
      ("ship_every_s", jfloat cluster_ship_every);
      ("detect_s", jfloat fed);
      ("detect_monolith_s", jfloat mono);
      ("infected_at_detect", jfloat infected_at_detect);
      ("epidemic_knee_s", jfloat knee_s);
      ("seconds", jfloat dt);
    ] )

(* ------------------------------------------------------------------ *)

(* One row's [k] runs: its fields are those of its median run, and
   packets_per_sec carries that run's rate with the quartiles of all
   [k] (the order statistics at k/4 and 3k/4). *)
let summarise name runs =
  Array.sort (fun (a, _) (b, _) -> Float.compare a b) runs;
  let pps i = fst runs.(i) in
  Printf.printf "bench-json: %s median %.0f pkt/s (q1 %.0f, q3 %.0f, k %d)\n%!"
    name (pps (k / 2)) (pps (k / 4)) (pps (3 * k / 4)) k;
  Json.Obj
    (snd runs.(k / 2)
    @ [
        ( "packets_per_sec",
          Json.Obj
            [
              ("median", jfloat (pps (k / 2)));
              ("q1", jfloat (pps (k / 4)));
              ("q3", jfloat (pps (3 * k / 4)));
              ("k", Json.int k);
            ] );
      ])

let run ~mode ~out () =
  let replay_packets, stream_packets =
    match mode with
    | `Smoke -> (400, 2_000)
    | `Quick -> (2_000, 20_000)
    | `Full -> (10_000, 100_000)
  in
  let mode_name =
    match mode with `Smoke -> "smoke" | `Quick -> "quick" | `Full -> "full"
  in
  let rows =
    [
      ("stream_shedding", fun () -> stream_shedding ~packets:stream_packets);
      ("confirm_overhead", fun () -> confirm_overhead ~packets:replay_packets);
      ("cluster_latency", fun () -> cluster_latency ~packets:replay_packets);
    ]
  in
  (* Round-robin, so each row's runs spread over the whole process and
     a slow spell of the host lands on every row alike. *)
  Printf.printf
    "bench-json: %d rounds of stream shedding (%d packets), confirm overhead \
     (%d packets), cluster latency (%d benign packets)...\n%!"
    k stream_packets replay_packets replay_packets;
  let rounds =
    Array.init k (fun _ -> Array.of_list (List.map (fun (_, row) -> row ()) rows))
  in
  let workloads =
    List.mapi
      (fun j (name, _) -> (name, summarise name (Array.map (fun r -> r.(j)) rounds)))
      rows
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String schema);
        ("pr", Json.int pr);
        ("mode", Json.String mode_name);
        ("workloads", Json.Obj workloads);
      ]
  in
  let oc = open_out out in
  output_string oc (Json.to_string doc ^ "\n");
  close_out oc;
  Printf.printf "bench-json: wrote %s\n%!" out
