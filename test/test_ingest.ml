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
module Source = Sanids_ingest.Source

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

(* The admission bound is on the datagram, not the record: a largest
   legal IPv4 datagram in an Ethernet frame (65,549 bytes) is admitted,
   while a raw-linktype record one byte over the bound is shed. *)
let test_bound_is_on_the_datagram () =
  let pkt =
    Packet.build_tcp ~ts:0.0 ~src:(ip "172.18.0.1") ~dst:(ip "172.19.0.1") ~src_port:1
      ~dst_port:80 (String.make (0xFFFF - 40) 'a')
  in
  let datagram = Packet.to_bytes pkt in
  Alcotest.(check int) "largest IPv4 datagram" 0xFFFF (String.length datagram);
  let record data =
    { Pcap.ts = 0.0; orig_len = String.length data; data = Slice.of_string data }
  in
  (match
     Ingest.decode_record ~linktype:Pcap.linktype_ethernet
       (record (Ethernet.wrap_ipv4 datagram))
   with
  | Ok p -> Alcotest.(check int) "whole payload" (0xFFFF - 40) (Slice.length (Packet.payload p))
  | Error e -> Alcotest.failf "legal framed datagram shed: %s" (Ingest.error_to_string e));
  match Ingest.decode_record ~linktype:Pcap.linktype_raw (record (String.make 0x10000 '\x45')) with
  | Error (Ingest.Payload_bound _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "65,536-byte raw record admitted"

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

(* ------------------------------------------------------------------ *)
(* follow-mode sources: the FIFO frames with the same header parsers as
   the whole-file path, as bytes arrive *)

let with_temp_dir f =
  let dir = Filename.temp_dir "sanids_source" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* Pull until the source has nothing more right now. *)
let drain src on_packet =
  let rec go () =
    match Source.next src with
    | Source.Packet p ->
        on_packet p;
        go ()
    | Source.Idle -> ()
    | Source.Eof -> Alcotest.fail "a FIFO source never ends"
  in
  go ()

(* Write [s] into the FIFO's non-blocking writer end, draining the
   source whenever the pipe is full, so one thread plays both sides. *)
let feed fd src on_packet s =
  let off = ref 0 in
  while !off < String.length s do
    match Unix.write_substring fd s !off (String.length s - !off) with
    | n -> off := !off + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        drain src on_packet
  done

(* Open [path] (a FIFO) as a source and run [f] with its writer end. *)
let with_fifo ?metrics dir f =
  let path = Filename.concat dir "feed" in
  Unix.mkfifo path 0o600;
  let src =
    match Source.of_path ?metrics path with Ok s -> s | Error m -> Alcotest.fail m
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      Source.close src)
    (fun () -> f src fd)

let error_series r = Printf.sprintf "%s{reason=\"%s\"}" Ingest.errors_total r

(* records_total, then each reason's error count *)
let ingest_counts reg =
  let snap = Obs.Registry.snapshot reg in
  Obs.Snapshot.counter_value snap Ingest.records_total
  :: List.map (fun r -> Obs.Snapshot.counter_value snap (error_series r)) Ingest.reasons

(* A writer whose record header claims an 8 MiB body: the FIFO sheds
   the record at header time, counted as file mode counts it, and
   discards the body as it arrives instead of buffering it. *)
let test_fifo_sheds_over_bound () =
  with_temp_dir (fun dir ->
      let reg = Obs.Registry.create () in
      let metrics = Ingest.metrics reg in
      with_fifo ~metrics dir (fun src fd ->
          let pkt = List.hd (benign 1 0x51DEL) in
          let capture = Pcap.encode (Pcap.of_packets [ pkt ]) in
          let hdr = Pcap.global_header_len in
          let body = 8 * 1024 * 1024 in
          let record_header = Bytes.make Pcap.record_header_len '\000' in
          Bytes.set_int32_le record_header 8 (Int32.of_int body);
          Bytes.set_int32_le record_header 12 (Int32.of_int body);
          let chunk = String.make 65536 '\000' in
          let got = ref [] in
          let on_packet p = got := p :: !got in
          feed fd src on_packet (String.sub capture 0 hdr);
          feed fd src on_packet (Bytes.to_string record_header);
          let a0 = Gc.allocated_bytes () in
          for _ = 1 to body / String.length chunk do
            feed fd src on_packet chunk
          done;
          drain src on_packet;
          let allocated = Gc.allocated_bytes () -. a0 in
          feed fd src on_packet (String.sub capture hdr (String.length capture - hdr));
          drain src on_packet;
          if allocated >= 1048576.0 then
            Alcotest.failf "streaming an 8 MiB shed body allocated %.0f bytes" allocated;
          (match !got with
          | [ p ] ->
              Alcotest.(check string) "the record after it decodes"
                (Packet.payload_string pkt) (Packet.payload_string p)
          | l -> Alcotest.failf "%d packets, want 1" (List.length l));
          Alcotest.(check (list int)) "records, then errors by reason"
            [ 2; 0; 0; 0; 0; 0; 1 ] (ingest_counts reg)))

(* The same capture bytes through Source.of_path as a regular file and
   as a FIFO: the same packets in order, the same ingest counters.  The
   capture is a seeded benign one, Raw or Ethernet, under a random fault
   plan (framing intact: the faulted records are re-encoded), sometimes
   with an over-bound record spliced in. *)
let source_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let plan =
    List.filter_map
      (fun k -> if Rng.bool rng then Some (k, Rng.float rng 1.0) else None)
      [ Fault.Truncate; Fault.Bit_flip; Fault.Duplicate; Fault.Reorder; Fault.Garbage_prepend ]
  in
  let pkts = benign (1 + Rng.int rng 40) (Rng.int64 rng) in
  let ethernet = Rng.bool rng in
  let records = if ethernet then Pcap.of_packets_ethernet pkts else Pcap.of_packets pkts in
  let records = Fault.records ~seed:(Rng.int64 rng) plan records in
  let records =
    if Rng.int rng 4 = 0 then
      let big = Rng.bytes rng (0x10000 + 14) in
      let at = Rng.int rng (List.length records + 1) in
      List.filteri (fun i _ -> i < at) records
      @ ({ Pcap.ts = 9.0; orig_len = String.length big; data = Slice.of_string big }
         :: List.filteri (fun i _ -> i >= at) records)
    else records
  in
  let linktype = if ethernet then Pcap.linktype_ethernet else Pcap.linktype_raw in
  Pcap.encode ~linktype records

let prop_source_file_equals_fifo =
  QCheck2.Test.make ~name:"Source: regular file ≡ FIFO carrying the same bytes" ~count:40
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let capture = source_case seed in
      with_temp_dir (fun dir ->
          let view p = (p.Packet.ts, Packet.to_bytes p) in
          let from_file =
            let path = Filename.concat dir "capture.pcap" in
            Out_channel.with_open_bin path (fun oc -> output_string oc capture);
            let reg = Obs.Registry.create () in
            let src =
              match Source.of_path ~metrics:(Ingest.metrics reg) path with
              | Ok s -> s
              | Error m -> Alcotest.fail m
            in
            let rec all acc =
              match Source.next src with
              | Source.Packet p -> all (view p :: acc)
              | Source.Idle -> Alcotest.fail "a file source is never idle"
              | Source.Eof -> List.rev acc
            in
            let packets = all [] in
            (packets, ingest_counts reg)
          in
          let from_fifo =
            let reg = Obs.Registry.create () in
            let got = ref [] in
            with_fifo ~metrics:(Ingest.metrics reg) dir (fun src fd ->
                let on_packet p = got := view p :: !got in
                feed fd src on_packet capture;
                drain src on_packet);
            (List.rev !got, ingest_counts reg)
          in
          from_file = from_fifo))

let properties = List.map QCheck_alcotest.to_alcotest [ prop_never_raises ]

let () =
  Alcotest.run "ingest"
    [
      ( "typed-errors",
        [
          Alcotest.test_case "decode_file" `Quick test_decode_file;
          Alcotest.test_case "decode_record" `Quick test_decode_record;
          Alcotest.test_case "bound is on the datagram" `Quick test_bound_is_on_the_datagram;
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
      ( "source",
        [
          Alcotest.test_case "fifo sheds an over-bound record" `Quick test_fifo_sheds_over_bound;
          QCheck_alcotest.to_alcotest prop_source_file_equals_fifo;
        ] );
      ( "isolation",
        [ Alcotest.test_case "worker survives callback crash" `Quick test_worker_isolation ] );
    ]
