(* End-to-end tests of the NIDS pipeline: classification gating, honeypot
   and scan paths, extraction-driven analysis, alert content, statistics,
   and the workload generators. *)

open Sanids_net
open Sanids_nids
open Sanids_exploits

let ip = Ipaddr.of_string

let honeypot_addr = ip "10.9.9.9"
let attacker = ip "172.16.5.5"
let victim = ip "10.0.0.80"
let clients = Ipaddr.prefix_of_string "10.1.0.0/16"
let servers = Ipaddr.prefix_of_string "10.2.0.0/16"
let unused_space = Ipaddr.prefix_of_string "10.200.0.0/16"

let base_config =
  Config.default
  |> Config.with_honeypots [ honeypot_addr ]
  |> Config.with_unused [ unused_space ]

let exploit_packet ?(ts = 1.0) ~src ~dst () =
  let rng = Rng.create 42L in
  Exploit_gen.packet rng ~ts ~src ~dst
    ~shellcode:(Shellcodes.find "classic").Shellcodes.code

let test_honeypot_path () =
  let nids = Pipeline.create base_config in
  (* attacker probes the honeypot, then exploits a real host *)
  let probe =
    Packet.build_tcp ~ts:0.5 ~src:attacker ~dst:honeypot_addr ~src_port:4000
      ~dst_port:80 "GET / HTTP/1.0\r\n\r\n"
  in
  Alcotest.(check int) "probe itself: suspicious but benign content" 0
    (List.length (Pipeline.process_packet nids probe));
  let alerts = Pipeline.process_packet nids (exploit_packet ~src:attacker ~dst:victim ()) in
  Alcotest.(check bool) "exploit from marked source alerts" true (alerts <> []);
  let a = List.hd alerts in
  Alcotest.(check string) "template" "shell-spawn" a.Alert.template;
  Alcotest.(check bool) "reason honeypot" true
    (a.Alert.reason = Sanids_classify.Classifier.Honeypot_sender)

let test_unflagged_source_not_analyzed () =
  let nids = Pipeline.create base_config in
  (* the same exploit from a source that never tripped the classifier *)
  let alerts = Pipeline.process_packet nids (exploit_packet ~src:(ip "172.16.0.1") ~dst:victim ()) in
  Alcotest.(check int) "no classification, no analysis" 0 (List.length alerts)

let test_scan_detector_path () =
  let nids = Pipeline.create base_config in
  let rng = Rng.create 43L in
  let src = ip "198.51.100.7" in
  (* five scans into the unused space trip the threshold *)
  for s = 1 to 5 do
    let p =
      Sanids_workload.Worm_gen.scan_packet rng ~ts:(float_of_int s) ~src
        ~unused:unused_space
    in
    ignore (Pipeline.process_packet nids p)
  done;
  let alerts = Pipeline.process_packet nids (exploit_packet ~ts:6.0 ~src ~dst:victim ()) in
  Alcotest.(check bool) "scanner's exploit detected" true (alerts <> []);
  Alcotest.(check bool) "reason scanner" true
    ((List.hd alerts).Alert.reason = Sanids_classify.Classifier.Scanner)

let test_below_threshold_not_flagged () =
  let nids = Pipeline.create base_config in
  let rng = Rng.create 44L in
  let src = ip "198.51.100.8" in
  for s = 1 to 3 do
    ignore
      (Pipeline.process_packet nids
         (Sanids_workload.Worm_gen.scan_packet rng ~ts:(float_of_int s) ~src
            ~unused:unused_space))
  done;
  Alcotest.(check int) "three scans stay under threshold 5" 0
    (List.length (Pipeline.process_packet nids (exploit_packet ~ts:4.0 ~src ~dst:victim ())))

let test_classification_disabled_mode () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  let alerts =
    Pipeline.process_packet nids (exploit_packet ~src:(ip "172.16.0.2") ~dst:victim ())
  in
  Alcotest.(check bool) "analyzed without classification" true (alerts <> []);
  Alcotest.(check bool) "reason disabled" true
    ((List.hd alerts).Alert.reason
    = Sanids_classify.Classifier.Classification_disabled)

let test_code_red_detected_end_to_end () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  let p = Code_red.packet ~ts:0.0 ~src:attacker ~dst:victim () in
  let alerts = Pipeline.process_packet nids p in
  Alcotest.(check bool) "code red alert" true
    (List.exists (fun a -> a.Alert.template = "code-red-ii") alerts)

let test_benign_no_alerts () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  let rng = Rng.create 45L in
  let pkts =
    Sanids_workload.Benign_gen.packets rng ~n:300 ~t0:0.0 ~clients ~servers
  in
  let alerts = Pipeline.process_packets nids pkts in
  Alcotest.(check int) "no false positives" 0 (List.length alerts)

let test_pcap_end_to_end () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  let pkts =
    [
      Packet.build_tcp ~ts:0.1 ~src:attacker ~dst:victim ~src_port:1 ~dst_port:80
        "GET /ok HTTP/1.0\r\n\r\n";
      Code_red.packet ~ts:0.2 ~src:attacker ~dst:victim ();
    ]
  in
  let file =
    Result.get_ok
      (Sanids_pcap.Pcap.decode (Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts)))
  in
  let alerts = Pipeline.process_packets nids (Sanids_ingest.Ingest.ok_packets file) in
  Alcotest.(check int) "one packet alerts" 1 (List.length alerts)

let test_stats_accounting () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  ignore (Pipeline.process_packet nids (exploit_packet ~src:attacker ~dst:victim ()));
  ignore
    (Pipeline.process_packet nids
       (Packet.build_tcp ~ts:0.3 ~src:attacker ~dst:victim ~src_port:1 ~dst_port:80
          "GET / HTTP/1.0\r\n\r\n"));
  let s = Pipeline.stats nids in
  Alcotest.(check int) "packets" 2 s.Stats.packets;
  Alcotest.(check int) "suspicious (classification off)" 2 s.Stats.classified_suspicious;
  Alcotest.(check bool) "frames analyzed" true (s.Stats.frames >= 1);
  Alcotest.(check bool) "alerts counted" true (s.Stats.alerts >= 1);
  Alcotest.(check bool) "time accrued" true (s.Stats.analysis_seconds >= 0.0)

let test_unpruned_mode_still_detects () =
  (* extraction disabled: whole payloads go to the disassembler *)
  let cfg =
    base_config |> Config.with_classification false |> Config.with_extraction false
  in
  let nids = Pipeline.create cfg in
  let alerts = Pipeline.process_packet nids (exploit_packet ~src:attacker ~dst:victim ()) in
  Alcotest.(check bool) "detected without extraction" true (alerts <> [])

let contains_sub hay needle =
  let n = String.length hay and m = String.length needle in
  let rec go i = i + m <= n && (String.sub hay i m = needle || go (i + 1)) in
  m = 0 || go 0

let test_alert_rendering () =
  let nids = Pipeline.create (Config.with_classification false base_config) in
  match Pipeline.process_packet nids (exploit_packet ~src:attacker ~dst:victim ()) with
  | a :: _ ->
      let line = Alert.to_line a in
      Alcotest.(check bool) "mentions template" true
        (String.length line > 0 && contains_sub line a.Alert.template)
  | [] -> Alcotest.fail "expected an alert"

(* ------------------------------------------------------------------ *)
(* workload sanity *)

let test_worm_trace_ground_truth () =
  let rng = Rng.create 46L in
  let pkts, truth =
    Sanids_workload.Worm_gen.code_red_trace rng ~benign:200 ~instances:3
      ~scans_per_instance:6 ~clients ~servers ~unused:unused_space ~duration:60.0
  in
  Alcotest.(check int) "total" (List.length pkts) truth.Sanids_workload.Worm_gen.total_packets;
  Alcotest.(check int) "instances" 3 truth.Sanids_workload.Worm_gen.crii_instances;
  Alcotest.(check int) "scans" 18 truth.Sanids_workload.Worm_gen.scan_packets;
  (* timestamps are sorted *)
  let rec sorted = function
    | a :: (b :: _ as tl) -> a.Packet.ts <= b.Packet.ts && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "time sorted" true (sorted pkts)

let test_worm_trace_full_detection () =
  let rng = Rng.create 47L in
  let pkts, truth =
    Sanids_workload.Worm_gen.code_red_trace rng ~benign:500 ~instances:4
      ~scans_per_instance:6 ~clients ~servers ~unused:unused_space ~duration:60.0
  in
  let nids = Pipeline.create base_config in
  let alerts = Pipeline.process_packets nids pkts in
  let crii = List.filter (fun a -> a.Alert.template = "code-red-ii") alerts in
  Alcotest.(check int) "every instance detected via classifier"
    truth.Sanids_workload.Worm_gen.crii_instances (List.length crii)

let test_slammer_outbreak_detected () =
  let rng = Rng.create 50L in
  let pkts, truth =
    Sanids_workload.Worm_gen.slammer_trace rng ~benign:500 ~infected:3
      ~sprays_per_host:6 ~clients ~servers ~unused:unused_space ~duration:60.0
  in
  let nids = Pipeline.create base_config in
  let alerts = Pipeline.process_packets nids pkts in
  let slam = List.filter (fun a -> a.Alert.template = "slammer") alerts in
  (* the sprays themselves flag the source, so at least the live-server
     delivery of every infected host is analyzed and matched *)
  Alcotest.(check bool)
    (Printf.sprintf "every infected host caught (%d >= %d)" (List.length slam)
       truth.Sanids_workload.Worm_gen.crii_instances)
    true
    (List.length slam >= truth.Sanids_workload.Worm_gen.crii_instances)

let test_benign_gen_mix () =
  let rng = Rng.create 48L in
  let pkts = Sanids_workload.Benign_gen.packets rng ~n:500 ~t0:0.0 ~clients ~servers in
  Alcotest.(check int) "count" 500 (List.length pkts);
  let tcp = List.length (List.filter Packet.is_tcp pkts) in
  Alcotest.(check bool) "mostly tcp" true (tcp > 350);
  (* sources come from the client prefix *)
  List.iter
    (fun p ->
      if not (Ipaddr.mem (Packet.src p) clients) then
        Alcotest.fail "client address outside prefix")
    pkts

let test_benign_seq_lazy () =
  let rng = Rng.create 49L in
  let s = Sanids_workload.Benign_gen.seq rng ~n:100000 ~t0:0.0 ~clients ~servers in
  (* consuming only a prefix must be cheap *)
  let first_ten = List.of_seq (Seq.take 10 s) in
  Alcotest.(check int) "prefix" 10 (List.length first_ten)

let test_benign_deterministic () =
  let mk seed = Sanids_workload.Benign_gen.packets (Rng.create seed) ~n:50 ~t0:0.0 ~clients ~servers in
  let render pkts = List.map Packet.to_bytes pkts in
  Alcotest.(check bool) "same seed same trace" true (render (mk 5L) = render (mk 5L));
  Alcotest.(check bool) "different seed different trace" true
    (render (mk 5L) <> render (mk 6L))

let test_benign_timestamps_increase () =
  let pkts = Sanids_workload.Benign_gen.packets (Rng.create 7L) ~n:200 ~t0:10.0 ~clients ~servers in
  let rec increasing = function
    | a :: (b :: _ as tl) -> a.Packet.ts <= b.Packet.ts && increasing tl
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (increasing pkts);
  Alcotest.(check bool) "starts after t0" true ((List.hd pkts).Packet.ts >= 10.0)

let test_benign_rate_controls_span () =
  let span rate =
    let pkts = Sanids_workload.Benign_gen.packets ~rate (Rng.create 8L) ~n:500 ~t0:0.0 ~clients ~servers in
    (List.nth pkts 499).Packet.ts
  in
  Alcotest.(check bool) "higher rate compresses time" true (span 10000.0 < span 100.0)

let test_benign_payloads_parse () =
  (* every generated packet round-trips through the codecs *)
  let pkts = Sanids_workload.Benign_gen.packets (Rng.create 9L) ~n:300 ~t0:0.0 ~clients ~servers in
  List.iter
    (fun p ->
      let raw = Packet.to_bytes p in
      match
        Sanids_ingest.Ingest.decode_record ~linktype:Sanids_pcap.Pcap.linktype_raw
          { Sanids_pcap.Pcap.ts = p.Packet.ts; orig_len = String.length raw;
            data = Slice.of_string raw }
      with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "generated packet failed to parse: %s"
            (Sanids_ingest.Ingest.error_to_string e))
    pkts

let test_mix_proportions () =
  let rng = Rng.create 10L in
  let pkts = Sanids_workload.Benign_gen.packets rng ~n:2000 ~t0:0.0 ~clients ~servers in
  let http =
    List.length
      (List.filter (fun p -> match Packet.ports p with Some (_, 80) -> true | _ -> false) pkts)
  in
  let dns =
    List.length
      (List.filter (fun p -> match Packet.ports p with Some (_, 53) -> true | _ -> false) pkts)
  in
  (* default mix: 72% http + 8% binary on port 80, 10% dns *)
  Alcotest.(check bool) "port 80 near 80%" true (http > 1400 && http < 1800);
  Alcotest.(check bool) "dns near 10%" true (dns > 120 && dns < 280)

let () =
  Alcotest.run "nids"
    [
      ( "pipeline",
        [
          Alcotest.test_case "honeypot path" `Quick test_honeypot_path;
          Alcotest.test_case "unflagged not analyzed" `Quick test_unflagged_source_not_analyzed;
          Alcotest.test_case "scan detector path" `Quick test_scan_detector_path;
          Alcotest.test_case "below threshold" `Quick test_below_threshold_not_flagged;
          Alcotest.test_case "classification disabled" `Quick test_classification_disabled_mode;
          Alcotest.test_case "code red end to end" `Quick test_code_red_detected_end_to_end;
          Alcotest.test_case "benign quiet" `Quick test_benign_no_alerts;
          Alcotest.test_case "pcap end to end" `Quick test_pcap_end_to_end;
          Alcotest.test_case "stats" `Quick test_stats_accounting;
          Alcotest.test_case "unpruned mode" `Quick test_unpruned_mode_still_detects;
          Alcotest.test_case "alert rendering" `Quick test_alert_rendering;
        ] );
      ( "workload",
        [
          Alcotest.test_case "worm ground truth" `Quick test_worm_trace_ground_truth;
          Alcotest.test_case "worm full detection" `Quick test_worm_trace_full_detection;
          Alcotest.test_case "slammer outbreak" `Quick test_slammer_outbreak_detected;
          Alcotest.test_case "benign mix" `Quick test_benign_gen_mix;
          Alcotest.test_case "lazy seq" `Quick test_benign_seq_lazy;
          Alcotest.test_case "deterministic" `Quick test_benign_deterministic;
          Alcotest.test_case "timestamps increase" `Quick test_benign_timestamps_increase;
          Alcotest.test_case "rate controls span" `Quick test_benign_rate_controls_span;
          Alcotest.test_case "payloads parse" `Quick test_benign_payloads_parse;
          Alcotest.test_case "mix proportions" `Quick test_mix_proportions;
        ] );
    ]
