(* Tests for the multicore bulk-processing path: shard-equivalence with
   the sequential pipeline, determinism, and cross-batch state. *)

open Sanids_net
open Sanids_nids
open Sanids_exploits
module Obs = Sanids_obs

let ip = Ipaddr.of_string
let clients = Ipaddr.prefix_of_string "172.18.0.0/16"
let servers = Ipaddr.prefix_of_string "172.19.0.0/16"
let unused = Ipaddr.prefix_of_string "172.19.200.0/21"
let honeypot = ip "172.19.0.250"

let config =
  Config.default
  |> Config.with_honeypots [ honeypot ]
  |> Config.with_unused [ unused ]

(* a mixed workload with known malicious content *)
let workload () =
  let rng = Rng.create 0x9A7A_11E1L in
  let benign = Sanids_workload.Benign_gen.packets rng ~n:2000 ~t0:0.0 ~clients ~servers in
  let attack1 =
    let src = ip "198.51.100.1" in
    List.init 6 (fun s ->
        Sanids_workload.Worm_gen.scan_packet rng ~ts:(float_of_int s) ~src ~unused)
    @ [
        Exploit_gen.packet rng ~ts:7.0 ~src ~dst:(Ipaddr.nth servers 80)
          ~shellcode:(Shellcodes.find "classic").Shellcodes.code;
      ]
  in
  let attack2 =
    let src = ip "203.0.113.7" in
    [
      Packet.build_tcp ~ts:10.0 ~src ~dst:honeypot ~src_port:55 ~dst_port:80 "probe";
      Code_red.packet ~ts:11.0 ~src ~dst:(Ipaddr.nth servers 81) ();
    ]
  in
  List.sort (fun a b -> compare a.Packet.ts b.Packet.ts) (benign @ attack1 @ attack2)

let alert_key a =
  Format.asprintf "%s|%s|%s" a.Alert.template (Ipaddr.to_string a.Alert.src)
    (Ipaddr.to_string a.Alert.dst)

let sorted_keys alerts = List.sort compare (List.map alert_key alerts)

let test_matches_sequential () =
  let pkts = workload () in
  let seq_nids = Pipeline.create config in
  let seq_alerts = Pipeline.process_packets seq_nids pkts in
  List.iter
    (fun domains ->
      let par_alerts, stats = Parallel.process ~domains config pkts in
      Alcotest.(check (list string))
        (Printf.sprintf "same alerts with %d domains" domains)
        (sorted_keys seq_alerts) (sorted_keys par_alerts);
      Alcotest.(check int)
        (Printf.sprintf "packet count with %d domains" domains)
        (List.length pkts) stats.Stats.packets)
    [ 1; 2; 4 ]

let test_deterministic () =
  let pkts = workload () in
  let a1, _ = Parallel.process ~domains:4 config pkts in
  let a2, _ = Parallel.process ~domains:4 config pkts in
  Alcotest.(check (list string)) "repeatable" (sorted_keys a1) (sorted_keys a2)

let test_sharding_consistent () =
  (* all packets of one source land in one shard *)
  let src = ip "198.51.100.1" in
  let k = Parallel.shard_of src ~shards:4 in
  for _ = 1 to 10 do
    Alcotest.(check int) "stable shard" k (Parallel.shard_of src ~shards:4)
  done

let test_streaming_cross_batch_state () =
  (* scans in one batch, exploit in a later batch: the scan counters must
     persist across the batch boundary *)
  let rng = Rng.create 0x9A7A_11E2L in
  let src = ip "198.51.100.9" in
  let scans =
    List.init 6 (fun s ->
        Sanids_workload.Worm_gen.scan_packet rng ~ts:(float_of_int s) ~src ~unused)
  in
  let exploit =
    Exploit_gen.packet rng ~ts:9.0 ~src ~dst:(Ipaddr.nth servers 9)
      ~shellcode:(Shellcodes.find "classic").Shellcodes.code
  in
  let all = scans @ [ exploit ] in
  let collected = ref [] in
  let stats =
    Parallel.process_seq ~domains:2 ~batch:3 config (List.to_seq all) (fun alerts ->
        collected := alerts @ !collected)
  in
  Alcotest.(check bool) "exploit detected across batches" true
    (List.exists (fun a -> a.Alert.template = "shell-spawn") !collected);
  Alcotest.(check int) "all packets counted" (List.length all) stats.Stats.packets

(* ------------------------------------------------------------------ *)
(* Snapshot.merge is a commutative monoid — the law the sharded design
   rests on.  Gauge values and histogram observations are integer-valued
   so float addition is exact and equality is meaningful. *)

let hist_snap obs =
  let h = Obs.Histogram.create () in
  List.iter (fun n -> Obs.Histogram.observe h (float_of_int n)) obs;
  Obs.Histogram.snap h

let snapshot_gen =
  let open QCheck2.Gen in
  let entry =
    oneof
      [
        map2
          (fun i n -> (Printf.sprintf "c%d_total" (i mod 3), Obs.Snapshot.Counter (n mod 500)))
          small_nat small_nat;
        map2
          (fun i n ->
            (Printf.sprintf "g%d" (i mod 3), Obs.Snapshot.Gauge (float_of_int (n mod 500))))
          small_nat small_nat;
        map2
          (fun i obs -> (Printf.sprintf "h%d_seconds" (i mod 2), Obs.Snapshot.Hist (hist_snap obs)))
          small_nat
          (list_size (int_range 0 6) (int_range 0 30));
      ]
  in
  map Obs.Snapshot.of_list (list_size (int_range 0 10) entry)

let prop_merge_commutative =
  QCheck2.Test.make ~name:"Snapshot.merge commutative" ~count:200
    QCheck2.Gen.(pair snapshot_gen snapshot_gen)
    (fun (a, b) ->
      Obs.Snapshot.equal (Obs.Snapshot.merge a b) (Obs.Snapshot.merge b a))

let prop_merge_associative =
  QCheck2.Test.make ~name:"Snapshot.merge associative" ~count:200
    QCheck2.Gen.(triple snapshot_gen snapshot_gen snapshot_gen)
    (fun (a, b, c) ->
      Obs.Snapshot.equal
        (Obs.Snapshot.merge (Obs.Snapshot.merge a b) c)
        (Obs.Snapshot.merge a (Obs.Snapshot.merge b c)))

let prop_merge_identity =
  QCheck2.Test.make ~name:"Snapshot.empty is the merge identity" ~count:200
    snapshot_gen
    (fun a ->
      Obs.Snapshot.equal (Obs.Snapshot.merge Obs.Snapshot.empty a) a
      && Obs.Snapshot.equal (Obs.Snapshot.merge a Obs.Snapshot.empty) a)

(* Merged per-domain registries equal the sequential pipeline's registry
   on the same workload.  Verdict caching is off: with it on, a payload
   seen in two shards is two cache misses but one sequentially, so cache
   counters are legitimately shard-dependent. *)
let test_registry_parity () =
  let pkts = workload () in
  let cfg = config |> Config.with_verdict_cache 0 in
  let seq = Pipeline.create cfg in
  let _ = Pipeline.process_packets seq pkts in
  (* timing histograms are wall-clock and never match; compare the typed
     counter view with the timing field masked *)
  let mask s = { s with Stats.analysis_seconds = 0.0 } in
  let render s = Format.asprintf "%a" Stats.pp (mask s) in
  let seq_stats = Pipeline.stats seq in
  List.iter
    (fun domains ->
      let _, snap = Parallel.process_snapshot ~domains cfg pkts in
      Alcotest.(check string)
        (Printf.sprintf "counters match sequential with %d domains" domains)
        (render seq_stats)
        (render (Stats.of_snapshot snap)))
    [ 1; 2; 4 ]

let merge_properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_merge_commutative; prop_merge_associative; prop_merge_identity ]

let () =
  Alcotest.run "parallel"
    [
      ( "equivalence",
        [
          Alcotest.test_case "matches sequential" `Quick test_matches_sequential;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "sharding consistent" `Quick test_sharding_consistent;
          Alcotest.test_case "registry parity" `Quick test_registry_parity;
        ] );
      ("merge-laws", merge_properties);
      ( "streaming",
        [
          Alcotest.test_case "cross-batch state" `Quick test_streaming_cross_batch_state;
        ] );
    ]
