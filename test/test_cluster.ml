(* The federated-cluster contract:

   - Backoff: spec grammar, deterministic jitter, capped growth, and
     the retry driver under a fake clock;
   - Detector: the entire failure-detector transition table, re-stated
     independently and enumerated (the Lifecycle discipline);
   - Delta: bit-exact wire roundtrip (qcheck over snapshots including
     non-finite and subnormal gauges, label values that need JSON
     escapes and sparse histograms), rejection of truncated and damaged
     documents, and the serve engine's JSONL dump read back equal to its
     in-process deltas;
   - Dedup x Fault: the exactness theorem — folding ANY at-least-once
     faulted delivery (drops-with-retry, duplicates, reorderings) of a
     delta stream through the dedup layer yields a cluster view EQUAL
     to the lossless merge;
   - Spool: epoch bumping across incarnations, journal/ack/pending, and
     a sensor replay that drops entries it cannot decode;
   - Aggregator: an in-process end-to-end over a Unix socket — fresh
     and duplicate acks, malformed rejection, heartbeats, /-/sensors,
     the merged scrape, drain. *)

module Obs = Sanids_obs
module Httpd = Sanids_serve.Httpd
module Delta = Sanids_cluster.Delta
module Dedup = Sanids_cluster.Dedup
module Detector = Sanids_cluster.Detector
module Fault = Sanids_cluster.Fault
module Spool = Sanids_cluster.Spool
module Aggregator = Sanids_cluster.Aggregator
module Sensor = Sanids_cluster.Sensor
module Serve = Sanids_serve.Serve

(* ------------------------------------------------------------------ *)
(* Backoff *)

let test_backoff_spec () =
  (match Backoff.of_string "base=0.1,factor=3,cap=1,jitter=0,timeout=2" with
  | Ok b ->
      Alcotest.(check (float 1e-9)) "base" 0.1 b.Backoff.base;
      Alcotest.(check (float 1e-9)) "factor" 3.0 b.Backoff.factor;
      Alcotest.(check (float 1e-9)) "cap" 1.0 b.Backoff.cap;
      let again = Backoff.of_string (Backoff.to_string b) in
      Alcotest.(check bool) "roundtrip" true (again = Ok b)
  | Error m -> Alcotest.fail m);
  (match Backoff.of_string "cap=9" with
  | Ok b ->
      Alcotest.(check (float 1e-9)) "subset keeps default base"
        Backoff.default.Backoff.base b.Backoff.base
  | Error m -> Alcotest.fail m);
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown key" true (is_error (Backoff.of_string "bogus=1"));
  Alcotest.(check bool) "bad float" true (is_error (Backoff.of_string "base=x"));
  Alcotest.(check bool) "zero base" true (is_error (Backoff.of_string "base=0"));
  Alcotest.(check bool) "cap below base" true
    (is_error (Backoff.of_string "base=3,cap=1"));
  Alcotest.(check bool) "jitter above 1" true
    (is_error (Backoff.of_string "jitter=1.5"))

let test_backoff_delay () =
  let b = Backoff.default in
  (* deterministic: same (seed, attempt) -> same delay *)
  for attempt = 0 to 10 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "attempt %d deterministic" attempt)
      (Backoff.delay b ~seed:7L ~attempt)
      (Backoff.delay b ~seed:7L ~attempt)
  done;
  (* bounded: never above the cap, never below (1-jitter) of the
     un-jittered schedule, even deep past overflow territory *)
  List.iter
    (fun attempt ->
      let d = Backoff.delay b ~seed:3L ~attempt in
      let unjittered = Float.min b.Backoff.cap (b.Backoff.base *. (b.Backoff.factor ** float_of_int attempt)) in
      Alcotest.(check bool)
        (Printf.sprintf "attempt %d in [%g,%g], got %g" attempt
           ((1.0 -. b.Backoff.jitter) *. unjittered) unjittered d)
        true
        (d <= unjittered +. 1e-9
        && d >= ((1.0 -. b.Backoff.jitter) *. unjittered) -. 1e-9))
    [ 0; 1; 2; 3; 5; 10; 100; 10_000 ];
  (* different seeds decorrelate somewhere in the schedule *)
  let differs =
    List.exists
      (fun attempt ->
        Backoff.delay b ~seed:1L ~attempt <> Backoff.delay b ~seed:2L ~attempt)
      [ 0; 1; 2; 3; 4; 5 ]
  in
  Alcotest.(check bool) "seeds decorrelate" true differs

let test_backoff_retry () =
  let b = { Backoff.default with Backoff.base = 1.0; jitter = 0.0 } in
  let now = ref 0.0 in
  let slept = ref [] in
  let clock () = !now in
  let sleep d =
    slept := d :: !slept;
    now := !now +. d
  in
  let calls = ref 0 in
  (* succeeds on the third attempt *)
  let r =
    Backoff.retry ~sleep ~clock b ~seed:1L ~deadline:100.0 (fun ~attempt ->
        incr calls;
        if attempt < 2 then Error attempt else Ok attempt)
  in
  Alcotest.(check bool) "eventually ok" true (r = Ok 2);
  Alcotest.(check int) "three calls" 3 !calls;
  Alcotest.(check int) "two sleeps" 2 (List.length !slept);
  (* a deadline the schedule cannot meet returns the last error *)
  let calls = ref 0 in
  let r =
    Backoff.retry ~sleep ~clock b ~seed:1L ~deadline:(!now +. 1.5)
      (fun ~attempt ->
        incr calls;
        (Error attempt : (unit, int) result))
  in
  Alcotest.(check bool) "last error" true (r = Error (!calls - 1));
  Alcotest.(check bool) "gave up quickly" true (!calls <= 3)

(* ------------------------------------------------------------------ *)
(* Detector: the whole table, enumerated against an independent
   restatement of the protocol. *)

let detector_config = { Detector.suspect_after = 3.0; dead_after = 10.0 }

let detector_states = Detector.all_states

let detector_events =
  [
    Detector.Heard;
    Detector.Silence 0.0;
    Detector.Silence 2.9;
    Detector.Silence 3.0;
    Detector.Silence 9.9;
    Detector.Silence 10.0;
    Detector.Silence 1e9;
  ]

let detector_expected state event =
  match (state, event) with
  (* Heard always improves; only Heard resurrects *)
  | Detector.Dead, Detector.Heard -> Detector.Rejoined
  | (Detector.Alive | Detector.Suspect | Detector.Rejoined), Detector.Heard ->
      Detector.Alive
  (* silence never resurrects *)
  | Detector.Dead, Detector.Silence _ -> Detector.Dead
  (* silence degrades by threshold *)
  | (Detector.Alive | Detector.Suspect | Detector.Rejoined), Detector.Silence d
    ->
      if d >= 10.0 then Detector.Dead
      else if d >= 3.0 then Detector.Suspect
      else state

let test_detector_table () =
  List.iter
    (fun state ->
      List.iter
        (fun event ->
          let label =
            Printf.sprintf "%s + %s"
              (Detector.state_to_string state)
              (match event with
              | Detector.Heard -> "heard"
              | Detector.Silence d -> Printf.sprintf "silence %g" d)
          in
          Alcotest.(check string)
            label
            (Detector.state_to_string (detector_expected state event))
            (Detector.state_to_string (Detector.step detector_config state event)))
        detector_events)
    detector_states

let test_detector_walk () =
  let step s e = Detector.step detector_config s e in
  (* a sensor goes quiet, dies, speaks, and is alive two beats later *)
  let s = Detector.Alive in
  let s = step s (Detector.Silence 5.0) in
  Alcotest.(check string) "suspect" "suspect" (Detector.state_to_string s);
  let s = step s (Detector.Silence 2.0) in
  Alcotest.(check string) "short silence keeps suspect" "suspect"
    (Detector.state_to_string s);
  let s = step s (Detector.Silence 12.0) in
  Alcotest.(check string) "dead" "dead" (Detector.state_to_string s);
  let s = step s Detector.Heard in
  Alcotest.(check string) "rejoined" "rejoined" (Detector.state_to_string s);
  let s = step s Detector.Heard in
  Alcotest.(check string) "alive again" "alive" (Detector.state_to_string s)

let test_detector_validate () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "default valid" true
    (Detector.validate Detector.default_config = Ok Detector.default_config);
  Alcotest.(check bool) "zero suspect" true
    (is_error (Detector.validate { Detector.suspect_after = 0.0; dead_after = 1.0 }));
  Alcotest.(check bool) "dead below suspect" true
    (is_error (Detector.validate { Detector.suspect_after = 5.0; dead_after = 1.0 }))

(* ------------------------------------------------------------------ *)
(* Delta wire codec *)

let hist_snap obs =
  let h = Obs.Histogram.create () in
  List.iter (fun x -> Obs.Histogram.observe h x) obs;
  Obs.Histogram.snap h

let test_delta_roundtrip_unit () =
  let snapshot =
    Obs.Snapshot.of_list
      [
        ("sanids_packets_total", Obs.Snapshot.Counter 128);
        (* a labeled name: the quotes and the space travel inside a
           JSON string *)
        ( "sanids_ingest_errors_total{reason=\"bad frame\"}",
          Obs.Snapshot.Counter 2 );
        ("sanids_config_generation", Obs.Snapshot.Gauge 0.1);
        ("sanids_stage_analyze_seconds", Obs.Snapshot.Hist (hist_snap [ 0.001; 0.2; 3.0 ]));
        ("empty_hist_seconds", Obs.Snapshot.Hist (hist_snap []));
      ]
  in
  let d = { Delta.sensor = "web-1"; epoch = 3; seq = 17; snapshot } in
  match Delta.decode (Delta.encode d) with
  | Error m -> Alcotest.fail m
  | Ok d' ->
      Alcotest.(check string) "sensor" "web-1" d'.Delta.sensor;
      Alcotest.(check int) "epoch" 3 d'.Delta.epoch;
      Alcotest.(check int) "seq" 17 d'.Delta.seq;
      Alcotest.(check bool) "snapshot equal" true
        (Obs.Snapshot.equal snapshot d'.Delta.snapshot)

let test_delta_rejects () =
  let ok =
    Delta.encode
      {
        Delta.sensor = "a";
        epoch = 1;
        seq = 1;
        snapshot =
          Obs.Snapshot.of_list
            [
              ("x_total", Obs.Snapshot.Counter 1);
              ("y", Obs.Snapshot.Gauge 0.1);
              ("z_seconds", Obs.Snapshot.Hist (hist_snap [ 0.001; 0.2 ]));
            ];
      }
  in
  let is_error s = match Delta.decode s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_error "");
  Alcotest.(check bool) "bad magic" true (is_error "nope/1 x\n");
  (* every proper prefix is a truncation, never a smaller valid delta *)
  for cut = 0 to String.length ok - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix %d rejected" cut)
      true
      (is_error (String.sub ok 0 cut))
  done;
  List.iter
    (fun (label, doc) -> Alcotest.(check bool) label true (is_error doc))
    [
      ("bad sensor id", {|{"delta":2,"sensor":"a/b","epoch":1,"seq":1,"metrics":[]}|});
      ("negative epoch", {|{"delta":2,"sensor":"a","epoch":-1,"seq":1,"metrics":[]}|});
      ( "hist total mismatch",
        {|{"delta":2,"sensor":"a","epoch":1,"seq":1,"metrics":[{"metric":"x","type":"histogram","count":5,"sum":0,"buckets":[]}]}|}
      );
      ("negative seq", {|{"delta":2,"sensor":"a","epoch":1,"seq":-1,"metrics":[]}|});
      ("wrong version", {|{"delta":1,"sensor":"a","epoch":1,"seq":1,"metrics":[]}|});
      ("v1 text document", "sanids-delta/1 sensor=a epoch=1 seq=1 metrics=0\n");
      ( "unknown metric type",
        {|{"delta":2,"sensor":"a","epoch":1,"seq":1,"metrics":[{"metric":"x","type":"summary","value":1}]}|}
      );
      ( "bucket bound of no bucket",
        {|{"delta":2,"sensor":"a","epoch":1,"seq":1,"metrics":[{"metric":"x","type":"histogram","count":1,"sum":0,"buckets":[[0.003,1]]}]}|}
      );
      ( "conflicting kinds",
        {|{"delta":2,"sensor":"a","epoch":1,"seq":1,"metrics":[{"metric":"x","type":"counter","value":1},{"metric":"x","type":"gauge","value":1}]}|}
      );
    ]

(* Snapshots equal bit for bit: floats compare by their bits, and a nan
   equals any nan (its payload does not travel). *)
let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

let same_snapshot a b =
  let same (n, x) (m, y) =
    n = m
    &&
    match (x, y) with
    | Obs.Snapshot.Counter x, Obs.Snapshot.Counter y -> x = y
    | Obs.Snapshot.Gauge x, Obs.Snapshot.Gauge y -> same_float x y
    | Obs.Snapshot.Hist x, Obs.Snapshot.Hist y ->
        x.Obs.Histogram.counts = y.Obs.Histogram.counts
        && x.Obs.Histogram.total = y.Obs.Histogram.total
        && same_float x.Obs.Histogram.sum y.Obs.Histogram.sum
    | _ -> false
  in
  let a = Obs.Snapshot.to_list a and b = Obs.Snapshot.to_list b in
  List.length a = List.length b && List.for_all2 same a b

(* A snapshot drawn from a printed seed: label values that need JSON
   escapes (quote, backslash, newline, tab, space, raw bytes), gauges of
   any bit pattern and the awkward ones by name, sparse histograms. *)
let label_values = [| "plain"; "a\"b"; "c\\d"; "e\nf"; "g\th"; "i j"; "\"\\\n\t " |]
let odd_gauges = [| -0.0; Float.min_float /. 4.0; infinity; neg_infinity; Float.nan |]

let snapshot_of_seed seed =
  let rng = Rng.create (Int64.of_int seed) in
  let label () =
    if Rng.chance rng 0.2 then Rng.bytes rng 4 else Rng.pick rng label_values
  in
  let entry _ =
    match Rng.int rng 4 with
    | 0 ->
        ( Printf.sprintf "c%d_total{reason=\"%s\"}" (Rng.int rng 4) (label ()),
          Obs.Snapshot.Counter (Rng.int rng 1000) )
    | 1 ->
        (* any double, nan and subnormals included *)
        (Printf.sprintf "g%d" (Rng.int rng 3), Obs.Snapshot.Gauge (Int64.float_of_bits (Rng.int64 rng)))
    | 2 ->
        ( Printf.sprintf "g%d{state=\"%s\"}" (Rng.int rng 3) (label ()),
          Obs.Snapshot.Gauge (Rng.pick rng odd_gauges) )
    | _ ->
        ( Printf.sprintf "h%d_seconds" (Rng.int rng 2),
          Obs.Snapshot.Hist
            (hist_snap (List.init (Rng.int rng 7) (fun _ -> float_of_int (Rng.int rng 51) /. 3.0))) )
  in
  Obs.Snapshot.of_list (List.init (Rng.int rng 11) entry)

let prop_delta_roundtrip =
  QCheck2.Test.make ~name:"Delta.decode inverts Delta.encode bit-exactly"
    ~count:300 ~print:(Printf.sprintf "seed %d") QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let snapshot = snapshot_of_seed seed in
      let d = { Delta.sensor = "s-1"; epoch = 2; seq = 9; snapshot } in
      match Delta.decode (Delta.encode d) with
      | Error _ -> false
      | Ok d' -> same_snapshot snapshot d'.Delta.snapshot)

(* The serve engine's two sinks agree: its JSONL dump, read back,
   merges to exactly the merge of the deltas its [on_delta] hook saw.
   A cadence of 1 µs cuts a delta at nearly every packet. *)
let small_capture ?(n = 40) () =
  let path = Filename.temp_file "sanids_cluster_test" ".pcap" in
  let pkts =
    Sanids_workload.Benign_gen.packets (Rng.create 11L) ~n ~t0:0.0
      ~clients:(Sanids_net.Ipaddr.prefix_of_string "10.10.0.0/16")
      ~servers:(Sanids_net.Ipaddr.prefix_of_string "10.20.0.0/16")
  in
  Result.get_ok (File.write path (Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts)));
  path

let test_dump_matches_deltas () =
  let source = small_capture () in
  let dump = Filename.temp_file "sanids_cluster_test" ".jsonl" in
  Sys.remove dump;
  let deltas = ref [] in
  let options =
    {
      Serve.default_options with
      Serve.source;
      snapshot_out = Some dump;
      snapshot_every = 1e-6;
      install_signals = false;
      on_delta = Some (fun d -> deltas := d :: !deltas);
    }
  in
  (match Serve.run options with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Serve.error_to_string e));
  let merged =
    List.fold_left Obs.Snapshot.merge Obs.Snapshot.empty (List.rev !deltas)
  in
  Alcotest.(check bool) "several deltas" true (List.length !deltas > 2);
  let records =
    String.split_on_char '\n' (Result.get_ok (File.read dump))
    |> List.filter (( <> ) "")
    |> List.map (fun l ->
           match Json.of_string l with Ok j -> j | Error m -> Alcotest.failf "%S: %s" l m)
  in
  (match Obs.Export.of_records records with
  | Error m -> Alcotest.fail m
  | Ok read ->
      Alcotest.(check bool) "dump merge = on_delta merge, bit for bit" true
        (same_snapshot merged read));
  List.iter Sys.remove [ source; dump ]

(* ------------------------------------------------------------------ *)
(* Dedup x Fault: exactness under any at-least-once delivery. *)

(* A stream of distinct deltas across two sensors and two epochs each,
   with small random counter payloads. *)
let stream_gen =
  let open QCheck2.Gen in
  let delta sensor epoch seq =
    map
      (fun n ->
        {
          Delta.sensor;
          epoch;
          seq;
          snapshot =
            Obs.Snapshot.of_list
              [
                ("sanids_packets_total", Obs.Snapshot.Counter (n mod 50));
                ("sanids_ingest_records_total", Obs.Snapshot.Counter (n mod 50));
              ];
        })
      small_nat
  in
  let sensor_stream sensor =
    int_range 0 5 >>= fun n1 ->
    int_range 0 5 >>= fun n2 ->
    flatten_l
      (List.init n1 (fun i -> delta sensor 1 (i + 1))
      @ List.init n2 (fun i -> delta sensor 2 (i + 1)))
  in
  map2 ( @ ) (sensor_stream "a") (sensor_stream "b")

let plan_gen =
  let open QCheck2.Gen in
  let p = map (fun n -> float_of_int n /. 10.0) (int_range 0 10) in
  map3
    (fun drop dup reorder ->
      [ (Fault.Drop, drop); (Fault.Duplicate, dup); (Fault.Reorder, reorder) ])
    p p p

let fold_dedup deltas =
  List.fold_left (fun acc d -> fst (Dedup.apply acc d)) Dedup.empty deltas

let prop_dedup_exact_under_faults =
  QCheck2.Test.make
    ~name:"dedup(faulted at-least-once delivery) = lossless merge" ~count:300
    QCheck2.Gen.(triple stream_gen plan_gen (map Int64.of_int small_nat))
    (fun (stream, plan, seed) ->
      let lossless =
        List.fold_left
          (fun acc d -> Obs.Snapshot.merge acc d.Delta.snapshot)
          Obs.Snapshot.empty stream
      in
      let delivered = Fault.deliveries (Rng.create seed) plan stream in
      let view = Dedup.view (fold_dedup delivered) in
      Obs.Snapshot.equal view lossless)

let prop_deliveries_at_least_once =
  QCheck2.Test.make ~name:"Fault.deliveries loses nothing, invents nothing"
    ~count:300
    QCheck2.Gen.(
      triple (list_size (int_range 0 20) small_nat) plan_gen
        (map Int64.of_int small_nat))
    (fun (items, plan, seed) ->
      let delivered = Fault.deliveries (Rng.create seed) plan items in
      let module IS = Set.Make (Int) in
      IS.equal (IS.of_list delivered) (IS.of_list items)
      && List.length delivered >= List.length items)

let test_fault_spec () =
  (match Fault.of_string "drop=0.2,dup=0.1,delay=0.05,reorder=0.2,truncate=0.1" with
  | Ok plan ->
      Alcotest.(check int) "five kinds" 5 (List.length plan);
      Alcotest.(check bool) "roundtrip" true
        (Fault.of_string (Fault.to_string plan) = Ok plan)
  | Error m -> Alcotest.fail m);
  Alcotest.(check bool) "empty spec" true (Fault.of_string "" = Ok []);
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "unknown kind" true (is_error (Fault.of_string "melt=0.1"));
  Alcotest.(check bool) "bad prob" true (is_error (Fault.of_string "drop=2.0"))

let test_dedup_idempotent () =
  let d =
    {
      Delta.sensor = "a";
      epoch = 1;
      seq = 1;
      snapshot = Obs.Snapshot.of_list [ ("x_total", Obs.Snapshot.Counter 7) ];
    }
  in
  let t, o1 = Dedup.apply Dedup.empty d in
  let t, o2 = Dedup.apply t d in
  Alcotest.(check bool) "first fresh" true (o1 = Dedup.Fresh);
  Alcotest.(check bool) "second duplicate" true (o2 = Dedup.Duplicate);
  Alcotest.(check int) "value counted once" 7
    (Obs.Snapshot.counter_value (Dedup.view t) "x_total");
  match Dedup.stats t "a" with
  | None -> Alcotest.fail "no stats"
  | Some s ->
      Alcotest.(check int) "applied" 1 s.Dedup.applied;
      Alcotest.(check int) "duplicates" 1 s.Dedup.duplicates;
      Alcotest.(check int) "last epoch" 1 s.Dedup.last_epoch;
      Alcotest.(check int) "last seq" 1 s.Dedup.last_seq

(* ------------------------------------------------------------------ *)
(* Spool *)

let temp_dir () =
  let path = Filename.temp_file "sanids_spool_test" "" in
  Sys.remove path;
  path

let test_spool_epochs_and_replay () =
  let dir = temp_dir () in
  (* first incarnation journals two deltas, acks one, crashes *)
  (match Spool.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok s1 ->
      Alcotest.(check int) "first epoch" 1 (Spool.epoch s1);
      Alcotest.(check bool) "journal 1" true (Spool.journal s1 ~seq:1 "one" = Ok ());
      Alcotest.(check bool) "journal 2" true (Spool.journal s1 ~seq:2 "two" = Ok ());
      Spool.ack s1 ~epoch:1 ~seq:1);
  (* the respawn bumps the epoch and sees exactly the unacked delta *)
  (match Spool.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok s2 ->
      Alcotest.(check int) "second epoch" 2 (Spool.epoch s2);
      (match Spool.pending s2 with
      | [ (1, 2, "two") ] -> ()
      | p ->
          Alcotest.failf "expected [(1,2,two)], got %d entries" (List.length p));
      Alcotest.(check bool) "journal in new epoch" true
        (Spool.journal s2 ~seq:1 "three" = Ok ());
      (* pending orders prior incarnations first *)
      (match Spool.pending s2 with
      | [ (1, 2, "two"); (2, 1, "three") ] -> ()
      | p -> Alcotest.failf "bad order, %d entries" (List.length p));
      Spool.ack s2 ~epoch:1 ~seq:2;
      Spool.ack s2 ~epoch:2 ~seq:1;
      Alcotest.(check int) "all acked" 0 (List.length (Spool.pending s2)));
  (* third incarnation: epoch keeps rising even with an empty spool *)
  match Spool.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok s3 -> Alcotest.(check int) "third epoch" 3 (Spool.epoch s3)

(* ------------------------------------------------------------------ *)
(* In-process aggregator *)

let wait_until ?(tries = 100) f =
  let rec go n = if f () then true else if n = 0 then false else (Unix.sleepf 0.05; go (n - 1)) in
  go tries

(* Run an aggregator on a fresh Unix socket for the length of [f]. *)
let with_aggregator f =
  let path = Filename.temp_file "sanids_agg_test" ".sock" in
  Sys.remove path;
  let options =
    {
      Aggregator.default_options with
      Aggregator.listen = Httpd.Unix_socket path;
      tick_every = 0.02;
      install_signals = false;
    }
  in
  let result = ref (Error "never ran") in
  let th = Thread.create (fun () -> result := Aggregator.run options) () in
  let listen = Httpd.Unix_socket path in
  let get p = Httpd.request ~timeout:5.0 listen ~verb:"GET" ~path:p () in
  let post p body =
    Httpd.request ~timeout:5.0 ~body listen ~verb:"POST" ~path:p ()
  in
  Alcotest.(check bool) "aggregator came up" true
    (wait_until (fun () -> match get "/healthz" with Ok (200, _) -> true | _ -> false));
  f ~listen ~get ~post;
  (match post "/-/drain" "" with
  | Ok (200, _) -> ()
  | Ok (s, b) -> Alcotest.failf "drain %d: %s" s b
  | Error m -> Alcotest.fail m);
  Thread.join th;
  Alcotest.(check bool) "clean exit" true (!result = Ok ());
  (try Sys.remove path with Sys_error _ -> ())

(* A spool left by an older binary: one entry in the retired v1 text
   wire, which no aggregator accepts, ahead of one valid delta.  The
   replay drops the first and ships the second; kept, the v1 entry
   would be retried forever and the flush would time out. *)
let test_spool_drops_undecodable () =
  let dir = temp_dir () in
  (match Spool.open_dir dir with
  | Error m -> Alcotest.fail m
  | Ok s ->
      let valid =
        Delta.encode
          {
            Delta.sensor = "r1";
            epoch = 1;
            seq = 2;
            snapshot = Obs.Snapshot.of_list [ ("sanids_packets_total", Obs.Snapshot.Counter 3) ];
          }
      in
      Alcotest.(check bool) "journal v1" true
        (Spool.journal s ~seq:1 "sanids-delta/1 sensor=r1 epoch=1 seq=1 metrics=1\nc sanids_packets_total 3\n"
        = Ok ());
      Alcotest.(check bool) "journal valid" true (Spool.journal s ~seq:2 valid = Ok ()));
  let source = small_capture ~n:10 () in
  with_aggregator (fun ~listen ~get ~post:_ ->
      let options =
        {
          Sensor.sensor_id = "r1";
          aggregator = listen;
          spool_dir = dir;
          serve = { Serve.default_options with Serve.source; install_signals = false };
          ship_every = 60.0;
          backoff = { Backoff.default with Backoff.base = 0.01; cap = 0.05 };
          connect_timeout = 5.0;
          heartbeat_every = 0.0;
          channel_fault = [];
          fault_seed = 1L;
          flush_timeout = Some 5.0;
        }
      in
      (match Sensor.run options with
      | Ok () -> ()
      | Error e -> Alcotest.fail (Sensor.error_to_string e));
      Alcotest.(check (list string)) "spool empty" []
        (List.filter
           (fun f -> Filename.check_suffix f ".delta")
           (Array.to_list (Sys.readdir dir)));
      match get "/-/sensors" with
      | Ok (200, body) ->
          Alcotest.(check string) "replayed delta and the drain delta applied"
            "sensor=r1 state=alive epoch=2 seq=1 epochs=2 applied=2 duplicates=0\n" body
      | Ok (s, b) -> Alcotest.failf "sensors %d: %s" s b
      | Error m -> Alcotest.fail m);
  Sys.remove source

(* ------------------------------------------------------------------ *)
(* Aggregator end-to-end, in process. *)

let test_aggregator_e2e () =
  with_aggregator @@ fun ~listen:_ ~get ~post ->
  let delta seq n =
    Delta.encode
      {
        Delta.sensor = "t1";
        epoch = 1;
        seq;
        snapshot =
          Obs.Snapshot.of_list
            [
              ("sanids_packets_total", Obs.Snapshot.Counter n);
              ("sanids_ingest_records_total", Obs.Snapshot.Counter n);
            ];
      }
  in
  (match post "/-/delta" (delta 1 5) with
  | Ok (200, body) -> Alcotest.(check string) "fresh ack" "ack epoch=1 seq=1 fresh\n" body
  | Ok (s, b) -> Alcotest.failf "status %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match post "/-/delta" (delta 1 5) with
  | Ok (200, body) ->
      Alcotest.(check string) "duplicate ack" "ack epoch=1 seq=1 duplicate\n" body
  | Ok (s, b) -> Alcotest.failf "status %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match post "/-/delta" (delta 2 3) with
  | Ok (200, body) -> Alcotest.(check string) "second fresh" "ack epoch=1 seq=2 fresh\n" body
  | Ok (s, b) -> Alcotest.failf "status %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match
     post "/-/delta" {|{"delta":2,"sensor":"t1","epoch":1,"seq":3,"metrics":[{"metric":"x","type":"counter"|}
   with
  | Ok (400, _) -> ()
  | Ok (s, b) -> Alcotest.failf "expected 400, got %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match post "/-/heartbeat" "sensor=t1\n" with
  | Ok (200, _) -> ()
  | Ok (s, b) -> Alcotest.failf "heartbeat %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match post "/-/heartbeat" "nonsense\n" with
  | Ok (400, _) -> ()
  | Ok (s, b) -> Alcotest.failf "expected 400, got %d: %s" s b
  | Error m -> Alcotest.fail m);
  List.iter
    (fun body ->
      match post "/-/heartbeat" body with
      | Ok (400, _) -> ()
      | Ok (s, b) -> Alcotest.failf "heartbeat %S: expected 400, got %d: %s" body s b
      | Error m -> Alcotest.fail m)
    [ "sensor=a/b\n"; "default\n"; "sensor=t1,bogus=1\n" ];
  (match get "/-/sensors" with
  | Ok (200, body) ->
      Alcotest.(check string) "sensors line"
        "sensor=t1 state=alive epoch=1 seq=2 epochs=1 applied=2 duplicates=1\n"
        body
  | Ok (s, b) -> Alcotest.failf "sensors %d: %s" s b
  | Error m -> Alcotest.fail m);
  let has body needle =
    let nl = String.length needle and bl = String.length body in
    let rec find i = i + nl <= bl && (String.sub body i nl = needle || find (i + 1)) in
    find 0
  in
  (match get "/metrics" with
  | Ok (200, body) ->
      let has = has body in
      Alcotest.(check bool) "dedup view in scrape" true
        (has "sanids_packets_total 8");
      Alcotest.(check bool) "fresh counter" true
        (has "sanids_cluster_deltas_total{outcome=\"fresh\"} 2");
      Alcotest.(check bool) "duplicate counter" true
        (has "sanids_cluster_deltas_total{outcome=\"duplicate\"} 1");
      Alcotest.(check bool) "malformed counter" true
        (has "sanids_cluster_deltas_total{outcome=\"malformed\"} 1");
      Alcotest.(check bool) "heartbeat counter" true
        (has "sanids_cluster_heartbeats_total 1");
      Alcotest.(check bool) "alive gauge" true
        (has "sanids_cluster_sensors{state=\"alive\"} 1")
  | Ok (s, b) -> Alcotest.failf "metrics %d: %s" s b
  | Error m -> Alcotest.fail m);
  (* one series with two kinds is malformed, not a server error *)
  (match
     post "/-/delta"
       {|{"delta":2,"sensor":"t1","epoch":1,"seq":4,"metrics":[{"metric":"x","type":"counter","value":1},{"metric":"x","type":"gauge","value":1}]}|}
   with
  | Ok (400, _) -> ()
  | Ok (s, b) -> Alcotest.failf "conflicting kinds: expected 400, got %d: %s" s b
  | Error m -> Alcotest.fail m);
  (match get "/metrics" with
  | Ok (200, body) ->
      Alcotest.(check bool) "conflicting kinds counted malformed" true
        (has body "sanids_cluster_deltas_total{outcome=\"malformed\"} 2")
  | Ok (s, b) -> Alcotest.failf "metrics %d: %s" s b
  | Error m -> Alcotest.fail m)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "cluster"
    [
      ( "backoff",
        [
          Alcotest.test_case "spec grammar" `Quick test_backoff_spec;
          Alcotest.test_case "delay determinism and bounds" `Quick test_backoff_delay;
          Alcotest.test_case "retry driver" `Quick test_backoff_retry;
        ] );
      ( "detector",
        [
          Alcotest.test_case "transition table" `Quick test_detector_table;
          Alcotest.test_case "die and rejoin walk" `Quick test_detector_walk;
          Alcotest.test_case "config validation" `Quick test_detector_validate;
        ] );
      ( "delta codec",
        [
          Alcotest.test_case "roundtrip unit" `Quick test_delta_roundtrip_unit;
          Alcotest.test_case "rejects malformed" `Quick test_delta_rejects;
          QCheck_alcotest.to_alcotest prop_delta_roundtrip;
          Alcotest.test_case "serve dump = on_delta deltas" `Quick test_dump_matches_deltas;
        ] );
      ( "dedup exactness",
        [
          Alcotest.test_case "fault spec grammar" `Quick test_fault_spec;
          Alcotest.test_case "idempotent apply" `Quick test_dedup_idempotent;
          QCheck_alcotest.to_alcotest prop_dedup_exact_under_faults;
          QCheck_alcotest.to_alcotest prop_deliveries_at_least_once;
        ] );
      ( "spool",
        [
          Alcotest.test_case "epochs and replay" `Quick test_spool_epochs_and_replay;
          Alcotest.test_case "replay drops undecodable entries" `Quick
            test_spool_drops_undecodable;
        ] );
      ( "aggregator",
        [ Alcotest.test_case "end to end" `Quick test_aggregator_e2e ] );
    ]
