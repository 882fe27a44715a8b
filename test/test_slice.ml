(* The zero-copy slice layer: unit laws, slice-vs-copy equivalence
   (decode and scan must be byte-identical whether they see a whole
   string or an offset view into a larger buffer, including faulted
   captures), and the minor-heap allocation regression guard — the
   measured point of the slice refactor. *)

open Sanids_net
module AC = Sanids_baseline.Aho_corasick
module Extractor = Sanids_extract.Extractor
module Pipeline = Sanids_nids.Pipeline
module Config = Sanids_nids.Config
module Workload = Sanids_workload
module Exploits = Sanids_exploits

(* ------------------------------------------------------------------ *)
(* Unit laws *)

let test_basic_ops () =
  let s = Slice.of_string "hello world" in
  Alcotest.(check int) "length" 11 (Slice.length s);
  Alcotest.(check char) "get" 'w' (Slice.get s 6);
  Alcotest.(check string) "to_string" "hello world" (Slice.to_string s);
  Alcotest.(check bool) "whole view returns backing string itself" true
    (Slice.to_string s == Slice.base s);
  let w = Slice.sub s ~off:6 ~len:5 in
  Alcotest.(check string) "sub" "world" (Slice.to_string w);
  Alcotest.(check int) "sub offset" 6 (Slice.offset w);
  let w2 = Slice.sub w ~off:1 ~len:3 in
  Alcotest.(check string) "sub of sub" "orl" (Slice.to_string w2);
  Alcotest.(check int) "sub of sub offset composes" 7 (Slice.offset w2);
  Alcotest.(check bool) "equal_string" true (Slice.equal_string w "world");
  Alcotest.(check bool) "equal across backings" true
    (Slice.equal w (Slice.of_string "world"));
  Alcotest.(check bool) "empty" true (Slice.is_empty Slice.empty)

let test_word_accessors () =
  let s = Slice.sub (Slice.of_string "zz\x12\x34\x56\x78zz") ~off:2 ~len:4 in
  Alcotest.(check int) "u8" 0x12 (Slice.get_u8 s 0);
  Alcotest.(check int) "u16 be" 0x1234 (Slice.get_u16_be s 0);
  Alcotest.(check int) "u16 le" 0x3412 (Slice.get_u16_le s 0);
  Alcotest.(check int32) "u32 be" 0x12345678l (Slice.get_u32_be s 0);
  Alcotest.(check int32) "u32 le" 0x78563412l (Slice.get_u32_le s 0)

let test_bounds () =
  let s = Slice.sub (Slice.of_string "abcdef") ~off:1 ~len:3 in
  (match Slice.get s 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get past length must raise");
  match Slice.sub s ~off:2 ~len:2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sub past length must raise"

(* ------------------------------------------------------------------ *)
(* qcheck equivalence laws.  [embedded p junk] is the same bytes as
   [Slice.of_string p] but living at a nonzero offset inside a larger
   buffer — every operation must be offset-invariant. *)

let embedded p (junk1, junk2) =
  Slice.sub
    (Slice.of_string (junk1 ^ p ^ junk2))
    ~off:(String.length junk1) ~len:(String.length p)

let gen_payload_with_junk =
  QCheck2.Gen.(
    triple
      (string_size (int_bound 600))
      (string_size (int_bound 40))
      (string_size (int_bound 40)))

let prop_view_equals_copy =
  QCheck2.Test.make ~name:"view round-trips to the same bytes" ~count:500
    gen_payload_with_junk
    (fun (p, j1, j2) ->
      let v = embedded p (j1, j2) in
      Slice.to_string v = p && Slice.equal v (Slice.of_string p))

let frame_eq (a : Extractor.frame) (b : Extractor.frame) =
  a.Extractor.off = b.Extractor.off
  && a.Extractor.origin = b.Extractor.origin
  && Slice.to_string a.Extractor.data = Slice.to_string b.Extractor.data

let prop_extract_offset_invariant =
  QCheck2.Test.make ~name:"extractor is offset-invariant" ~count:300
    gen_payload_with_junk
    (fun (p, j1, j2) ->
      let whole = Extractor.extract (Slice.of_string p) in
      let viewed = Extractor.extract (embedded p (j1, j2)) in
      List.length whole = List.length viewed
      && List.for_all2 frame_eq whole viewed
      && Extractor.suspicious (Slice.of_string p)
         = Extractor.suspicious (embedded p (j1, j2)))

let ac =
  lazy
    (AC.build
       [ ("/bin/sh", "sh"); ("%u9090", "uni"); ("\xcd\x80", "int80"); ("AAAA", "sled") ])

let prop_ac_slice_equals_string =
  QCheck2.Test.make ~name:"aho-corasick slice scan equals string scan" ~count:500
    gen_payload_with_junk
    (fun (p, j1, j2) ->
      let t = Lazy.force ac in
      AC.search t p = AC.search_slice t (embedded p (j1, j2)))

let prop_search_slice_equals_naive =
  QCheck2.Test.make ~name:"Search.find_slice is offset-invariant" ~count:500
    QCheck2.Gen.(
      pair gen_payload_with_junk (string_size (int_range 1 6)))
    (fun ((p, j1, j2), needle) ->
      Search.find ~needle p
      = Search.find_slice ~needle (embedded p (j1, j2)))

(* Decode equivalence: parsing a packet from a whole string and from an
   offset view of the same bytes yields identical packets. *)
let a_addr = Ipaddr.of_string "10.0.0.1"
let b_addr = Ipaddr.of_string "10.0.0.2"

let prop_parse_view_equals_copy =
  QCheck2.Test.make ~name:"packet parse: view equals copy" ~count:300
    QCheck2.Gen.(
      pair (string_size (int_bound 1200)) (string_size (int_range 1 32)))
    (fun (payload, junk) ->
      let p =
        Packet.build_tcp ~ts:0.0 ~src:a_addr ~dst:b_addr ~src_port:1 ~dst_port:2
          payload
      in
      let raw = Packet.to_bytes p in
      let view =
        Slice.sub
          (Slice.of_string (junk ^ raw ^ junk))
          ~off:(String.length junk) ~len:(String.length raw)
      in
      match (Packet.parse ~ts:0.0 raw, Packet.parse_slice ~ts:0.0 view) with
      | Ok p1, Ok p2 ->
          Slice.equal (Packet.payload p1) (Packet.payload p2)
          && Packet.ports p1 = Packet.ports p2
          && Ipaddr.equal (Packet.src p1) (Packet.src p2)
      | Error e1, Error e2 -> e1 = e2
      | _ -> false)

(* Fault equivalence: a faulted record decodes identically whether its
   body is a view (what Fault.Truncate produces: an O(1) re-view) or a
   fresh copy of the same bytes. *)
let prop_faulted_decode_view_equals_copy =
  QCheck2.Test.make ~name:"faulted record decode: view equals copy" ~count:100
    QCheck2.Gen.(pair (int_bound 10_000) (int_bound 1000))
    (fun (seed, salt) ->
      let rng = Rng.create (Int64.of_int (0xFA017 + salt)) in
      let pkts =
        Workload.Benign_gen.packets rng ~n:8 ~t0:0.0
          ~clients:(Ipaddr.prefix_of_string "10.1.0.0/24")
          ~servers:(Ipaddr.prefix_of_string "10.2.0.0/24")
      in
      let records =
        List.map
          (fun p ->
            let raw = Packet.to_bytes p in
            {
              Sanids_pcap.Pcap.ts = 0.0;
              orig_len = String.length raw;
              data = Slice.of_string raw;
            })
          pkts
      in
      let plan =
        [ (Sanids_ingest.Fault.Truncate, 0.5); (Sanids_ingest.Fault.Bit_flip, 0.5) ]
      in
      let faulted =
        Sanids_ingest.Fault.records ~seed:(Int64.of_int seed) plan records
      in
      List.for_all
        (fun (r : Sanids_pcap.Pcap.record) ->
          let copy =
            { r with Sanids_pcap.Pcap.data = Slice.of_string (Slice.to_string r.Sanids_pcap.Pcap.data) }
          in
          let d x =
            Sanids_ingest.Ingest.decode_record
              ~linktype:Sanids_pcap.Pcap.linktype_raw x
          in
          match (d r, d copy) with
          | Ok p1, Ok p2 ->
              Slice.equal (Packet.payload p1) (Packet.payload p2)
          | Error _, Error _ -> true
          | _ -> false)
        faulted)

(* ------------------------------------------------------------------ *)
(* Allocation regression: minor-heap words/packet, measured with the
   same harness as the pre-change numbers (PR 6).  Bounds are the
   pre-change measurements; the slice path must stay strictly below. *)

let words_per f ~n =
  let w0 = Gc.minor_words () in
  f ();
  (Gc.minor_words () -. w0) /. float_of_int n

let clients = Ipaddr.prefix_of_string "192.168.1.0/24"
let servers = Ipaddr.prefix_of_string "192.168.2.0/24"

let check_below name bound v =
  if v >= bound then
    Alcotest.failf "%s: %.1f minor words/packet, must stay below %.1f" name v bound

let test_alloc_decode () =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 4000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let file_bytes = Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts) in
  let sink = ref 0 in
  let w =
    words_per ~n (fun () ->
        let f = Sanids_pcap.Pcap.decode_exn file_bytes in
        sink := List.length (Sanids_ingest.Ingest.ok_packets f))
  in
  Alcotest.(check int) "all decoded" n !sink;
  (* pre-change (copying decode chain): 181.8 *)
  check_below "decode" 181.8 w

let test_alloc_replay () =
  let rng = Rng.create 0x0B0B0B0BL in
  let variants =
    [|
      Exploits.Exploit_gen.http_exploit rng
        ~shellcode:(Exploits.Shellcodes.find "classic").Exploits.Shellcodes.code;
      Exploits.Code_red.request ();
      Exploits.Iis_asp.request ();
    |]
  in
  let packets = 2000 in
  let p = Pipeline.create (Config.default |> Config.with_classification false) in
  (* warm the verdict cache: the outbreak steady state is all hits *)
  Array.iter (fun v -> ignore (Pipeline.analyze_payload p v)) variants;
  let alerts = ref 0 in
  let w =
    words_per ~n:packets (fun () ->
        for i = 0 to packets - 1 do
          alerts :=
            !alerts
            + List.length
                (Pipeline.analyze_payload p variants.(i mod Array.length variants))
        done)
  in
  Alcotest.(check int) "every replayed packet alerts" packets !alerts;
  (* pre-change (copying analyze path): 109.5 *)
  check_below "outbreak replay" 109.5 w

let test_alloc_process () =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 4000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let p = Pipeline.create Config.default in
  let w = words_per ~n (fun () -> ignore (Pipeline.process_packets p pkts)) in
  (* pre-change (copying packet path): 89.7 *)
  check_below "benign full process" 89.7 w

(* The cold path: every benign payload is analysed (classification off,
   verdict cache off), so the suspicion gate and the template scan
   kernel dominate the allocation. *)
let test_alloc_cold () =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 1000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let p =
    Pipeline.create
      (Config.default |> Config.with_classification false |> Config.with_verdict_cache 0)
  in
  let w = words_per ~n (fun () -> ignore (Pipeline.process_packets p pkts)) in
  (* before the allocation-free scan kernel and suspicion gate: 76607.9;
     the bound is a third of that *)
  check_below "cold benign process" (76607.9 /. 3.0) w

(* ------------------------------------------------------------------ *)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_view_equals_copy;
      prop_extract_offset_invariant;
      prop_ac_slice_equals_string;
      prop_search_slice_equals_naive;
      prop_parse_view_equals_copy;
      prop_faulted_decode_view_equals_copy;
    ]

let () =
  Alcotest.run "slice"
    [
      ( "unit",
        [
          Alcotest.test_case "basic ops" `Quick test_basic_ops;
          Alcotest.test_case "word accessors" `Quick test_word_accessors;
          Alcotest.test_case "bounds" `Quick test_bounds;
        ] );
      ("equivalence", properties);
      ( "allocation",
        [
          Alcotest.test_case "decode words/packet" `Quick test_alloc_decode;
          Alcotest.test_case "replay words/packet" `Quick test_alloc_replay;
          Alcotest.test_case "process words/packet" `Quick test_alloc_process;
          Alcotest.test_case "cold words/packet" `Quick test_alloc_cold;
        ] );
    ]
