(* The resilient-ingest contract: typed decode errors for arbitrary
   (fault-mutated) captures with zero escaping exceptions, per-reason
   accounting that reconciles exactly, bounded-queue load shedding, and
   worker-domain crash isolation. *)

open Sanids_net
open Sanids_nids
module Obs = Sanids_obs
module Pcap = Sanids_pcap.Pcap
module Ingest = Sanids_ingest.Ingest
module Fault = Sanids_ingest.Fault

let ip = Ipaddr.of_string
let clients = Ipaddr.prefix_of_string "172.18.0.0/16"
let servers = Ipaddr.prefix_of_string "172.19.0.0/16"

let benign n seed =
  Sanids_workload.Benign_gen.packets (Rng.create seed) ~n ~t0:0.0 ~clients ~servers

(* ------------------------------------------------------------------ *)
(* typed decode errors *)

let test_decode_file () =
  (match Ingest.decode_file "not a pcap" with
  | Error (Ingest.Pcap_framing _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "garbage decoded");
  let pkts = benign 20 0xFEEDL in
  match Ingest.decode_file (Pcap.encode (Pcap.of_packets pkts)) with
  | Ok f -> Alcotest.(check int) "all records" 20 (List.length f.Pcap.records)
  | Error e -> Alcotest.failf "valid capture rejected: %s" (Ingest.error_to_string e)

let test_decode_record () =
  let pkt = List.hd (benign 1 0xBEEFL) in
  let record data =
    { Pcap.ts = 1.0; orig_len = String.length data; data = Slice.of_string data }
  in
  let raw = Packet.to_bytes pkt in
  (match Ingest.decode_record ~linktype:Pcap.linktype_raw (record raw) with
  | Ok p -> Alcotest.(check bool) "same src" true (Ipaddr.equal (Packet.src p) (Packet.src pkt))
  | Error e -> Alcotest.failf "valid record rejected: %s" (Ingest.error_to_string e));
  (match
     Ingest.decode_record ~linktype:Pcap.linktype_raw
       (record (String.sub raw 0 10))
   with
  | Error (Ingest.Ipv4_header _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "truncated header decoded");
  (match Ingest.decode_record ~linktype:12345 (record raw) with
  | Error (Ingest.Link_layer _) -> ()
  | _ -> Alcotest.fail "unknown linktype accepted");
  (match
     Ingest.decode_record ~linktype:Pcap.linktype_ethernet
       (record (Ethernet.wrap_ipv4 raw))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "ethernet frame rejected: %s" (Ingest.error_to_string e));
  match Ingest.decode_record ~max_payload:8 ~linktype:Pcap.linktype_raw (record raw) with
  | Error (Ingest.Payload_bound _) -> ()
  | _ -> Alcotest.fail "oversized record admitted"

let test_reason_labels () =
  Alcotest.(check (list string))
    "label values" [ "pcap_framing"; "link_layer"; "ipv4"; "tcp"; "udp"; "payload_bound" ]
    Ingest.reasons;
  Alcotest.(check string) "reason of framing" "pcap_framing"
    (Ingest.reason (Ingest.Pcap_framing "x"))

(* ------------------------------------------------------------------ *)
(* fault specs *)

let test_fault_spec () =
  let spec = "truncate=0.1,bitflip=0.05,dup=0.01,reorder=0.2,garbage=0.02" in
  (match Fault.of_string spec with
  | Ok plan -> Alcotest.(check string) "roundtrip" spec (Fault.to_string plan)
  | Error m -> Alcotest.failf "valid spec rejected: %s" m);
  (match Fault.of_string "meteor=0.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown kind accepted");
  (match Fault.of_string "truncate=1.5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "probability > 1 accepted");
  match Fault.of_string "truncate" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing probability accepted"

let test_fault_deterministic () =
  let records = Pcap.of_packets (benign 200 0xABCL) in
  let plan =
    Result.get_ok
      (Fault.of_string "truncate=0.3,bitflip=0.3,dup=0.2,reorder=0.2,garbage=0.2")
  in
  let a = Fault.records ~seed:42L plan records in
  let b = Fault.records ~seed:42L plan records in
  Alcotest.(check bool) "same seed, same corruption" true (a = b);
  let c = Fault.records ~seed:43L plan records in
  Alcotest.(check bool) "different seed, different corruption" true (a <> c)

(* ------------------------------------------------------------------ *)
(* the headline property: no fault plan makes ingest raise *)

let fault_gen =
  let open QCheck2.Gen in
  let prob = float_bound_inclusive 1.0 in
  let kind =
    oneofl
      [ Fault.Truncate; Fault.Bit_flip; Fault.Duplicate; Fault.Reorder;
        Fault.Garbage_prepend ]
  in
  list_size (int_range 1 8) (pair kind prob)

let prop_never_raises =
  QCheck2.Test.make ~name:"fault-mutated captures never raise" ~count:60
    QCheck2.Gen.(triple fault_gen int64 (int_range 1 40))
    (fun (plan, seed, n) ->
      let pkts = benign n (Int64.add seed 7L) in
      let file =
        Fault.file ~seed plan
          { Pcap.nanos = false; linktype = Pcap.linktype_raw;
            records = Pcap.of_packets pkts }
      in
      (* every record decodes to Ok or a typed Error — an exception here
         fails the property *)
      List.iter (fun r -> ignore (Ingest.decode_record ~linktype:file.Pcap.linktype r))
        file.Pcap.records;
      (* and the re-encoded capture survives file-level decode too *)
      (match Ingest.decode_file (Pcap.encode ~linktype:file.Pcap.linktype file.Pcap.records) with
      | Ok _ | Error _ -> ());
      true)

(* ------------------------------------------------------------------ *)
(* the acceptance fuzz: >= 10k mutated records, full accounting *)

let test_fuzz_reconciliation () =
  let pkts = benign 8_000 0x5EED5EEDL in
  let plan =
    Result.get_ok
      (Fault.of_string "truncate=0.25,bitflip=0.25,dup=0.4,reorder=0.1,garbage=0.15")
  in
  let file = Fault.file ~seed:0xF00DL plan
      { Pcap.nanos = false; linktype = Pcap.linktype_raw;
        records = Pcap.of_packets pkts }
  in
  let n_records = List.length file.Pcap.records in
  Alcotest.(check bool)
    (Printf.sprintf "fuzz corpus is large enough (%d records)" n_records)
    true (n_records >= 10_000);
  let reg = Obs.Registry.create () in
  let m = Ingest.metrics reg in
  let packets = Ingest.ok_packets ~metrics:m file in
  (* shed aggressively while analyzing, then check the identity
     records_in = packets_analyzed + errors + shed on the merged export *)
  let cfg =
    Config.default
    |> Config.with_stream_queue 64
    |> Config.with_stream_policy Bqueue.Drop_oldest
  in
  let snap =
    Parallel.process_seq_snapshot ~domains:4 ~batch:32 cfg (List.to_seq packets)
      (fun _ -> ())
  in
  let snap = Obs.Snapshot.merge snap (Obs.Registry.snapshot reg) in
  let records = Obs.Snapshot.counter_value snap Ingest.records_total in
  let analyzed = Obs.Snapshot.counter_value snap "sanids_packets_total" in
  let errors = Obs.Snapshot.counter_sum snap Ingest.errors_total in
  let shed = Obs.Snapshot.counter_sum snap "sanids_shed_total" in
  Alcotest.(check int) "records seen by ingest" n_records records;
  Alcotest.(check bool) "mutations actually rejected records" true (errors > 0);
  Alcotest.(check int)
    (Printf.sprintf "records = analyzed(%d) + errors(%d) + shed(%d)" analyzed
       errors shed)
    records
    (analyzed + errors + shed)

(* ------------------------------------------------------------------ *)
(* bounded admission queues *)

let test_bqueue_drop_newest () =
  let q = Bqueue.create ~capacity:2 Bqueue.Drop_newest in
  Alcotest.(check bool) "first queued" true (Bqueue.push q 1 = Bqueue.Queued);
  Alcotest.(check bool) "second queued" true (Bqueue.push q 2 = Bqueue.Queued);
  Alcotest.(check bool) "third shed" true (Bqueue.push q 3 = Bqueue.Shed_newest);
  Bqueue.close q;
  Alcotest.(check (list int)) "oldest survive" [ 1; 2 ] (Bqueue.pop_batch q ~max:10);
  Alcotest.(check (list int)) "closed and drained" [] (Bqueue.pop_batch q ~max:10)

let test_bqueue_drop_oldest () =
  let q = Bqueue.create ~capacity:2 Bqueue.Drop_oldest in
  ignore (Bqueue.push q 1);
  ignore (Bqueue.push q 2);
  Alcotest.(check bool) "head evicted" true (Bqueue.push q 3 = Bqueue.Shed_oldest 1);
  Bqueue.close q;
  Alcotest.(check (list int)) "newest survive" [ 2; 3 ] (Bqueue.pop_batch q ~max:10);
  Alcotest.(check bool) "push after close is shed" true
    (Bqueue.push q 4 = Bqueue.Shed_newest)

let test_bqueue_block_backpressure () =
  (* a slow consumer never loses anything under Block: the producer just
     waits.  4-deep queue, 200 items, order preserved end to end. *)
  let q = Bqueue.create ~capacity:4 Bqueue.Block in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 200 do
          assert (Bqueue.push q i = Bqueue.Queued)
        done;
        Bqueue.close q)
  in
  let rec drain acc =
    match Bqueue.pop_batch q ~max:3 with
    | [] -> List.rev acc
    | chunk -> drain (List.rev_append chunk acc)
  in
  let got = drain [] in
  Domain.join producer;
  Alcotest.(check (list int)) "lossless in order" (List.init 200 (fun i -> i + 1)) got

(* ------------------------------------------------------------------ *)
(* worker crash isolation *)

let test_worker_isolation () =
  (* an alert callback that bombs kills its worker loop; the run must
     still complete, count the failure, and keep the accounting whole *)
  let unused = Ipaddr.prefix_of_string "172.19.200.0/21" in
  let cfg = Config.default |> Config.with_unused [ unused ] in
  let rng = Rng.create 0xD1EL in
  let src = ip "198.51.100.77" in
  let attack =
    List.init 6 (fun s ->
        Sanids_workload.Worm_gen.scan_packet rng ~ts:(float_of_int s) ~src ~unused)
    @ [
        Sanids_exploits.Exploit_gen.packet rng ~ts:7.0 ~src
          ~dst:(Ipaddr.nth servers 80)
          ~shellcode:
            (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code;
      ]
  in
  let pkts = benign 100 0xCAFEL @ attack in
  let stats =
    Parallel.process_seq ~domains:2 ~batch:8 cfg (List.to_seq pkts) (fun _ ->
        failwith "alert sink is down")
  in
  Alcotest.(check bool) "the crash was counted" true (stats.Stats.worker_failures >= 1);
  Alcotest.(check int) "every packet accounted for" (List.length pkts)
    (stats.Stats.packets + stats.Stats.shed)

(* ------------------------------------------------------------------ *)
(* non-raising constructor satellites *)

let test_opt_constructors () =
  Alcotest.(check bool) "mac some" true
    (Ethernet.mac_of_string_opt "aa:bb:cc:dd:ee:ff" <> None);
  Alcotest.(check bool) "mac none" true (Ethernet.mac_of_string_opt "zz:zz" = None);
  Alcotest.(check (option string)) "hex some" (Some "\xde\xad")
    (Hexdump.decode_opt "dead");
  Alcotest.(check (option string)) "hex odd" None (Hexdump.decode_opt "abc");
  Alcotest.(check (option string)) "hex junk" None (Hexdump.decode_opt "zz");
  Alcotest.(check bool) "prefix some" true
    (Ipaddr.prefix_of_string_opt "10.0.0.0/8" <> None);
  Alcotest.(check bool) "prefix none" true
    (Ipaddr.prefix_of_string_opt "10.0.0.0/99" = None)

let properties = List.map QCheck_alcotest.to_alcotest [ prop_never_raises ]

let () =
  Alcotest.run "ingest"
    [
      ( "typed-errors",
        [
          Alcotest.test_case "decode_file" `Quick test_decode_file;
          Alcotest.test_case "decode_record" `Quick test_decode_record;
          Alcotest.test_case "reason labels" `Quick test_reason_labels;
          Alcotest.test_case "opt constructors" `Quick test_opt_constructors;
        ] );
      ( "fault",
        [
          Alcotest.test_case "spec parse/print" `Quick test_fault_spec;
          Alcotest.test_case "seeded determinism" `Quick test_fault_deterministic;
        ] );
      ("never-raises", properties);
      ( "accounting",
        [ Alcotest.test_case "10k-record fuzz reconciles" `Quick test_fuzz_reconciliation ] );
      ( "bqueue",
        [
          Alcotest.test_case "drop_newest" `Quick test_bqueue_drop_newest;
          Alcotest.test_case "drop_oldest" `Quick test_bqueue_drop_oldest;
          Alcotest.test_case "block backpressure" `Quick test_bqueue_block_backpressure;
        ] );
      ( "isolation",
        [ Alcotest.test_case "worker survives callback crash" `Quick test_worker_isolation ] );
    ]
