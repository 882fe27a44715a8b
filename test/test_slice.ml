(* The zero-copy slice layer: unit laws, slice-vs-copy equivalence
   (decode and scan must be byte-identical whether they see a whole
   string or an offset view into a larger buffer, including faulted
   captures), and the minor-heap allocation regression guard — the
   measured point of the slice refactor. *)

open Sanids_net
module Rule = Sanids_baseline.Rule
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
  Alcotest.(check int) "u32 be" 0x12345678 (Slice.get_u32_be_int s 0);
  Alcotest.(check int) "u32 le" 0x78563412 (Slice.get_u32_le_int s 0)

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

(* A rule whose content is cut from the payload itself, so windows that
   hit and windows that miss are both common.  Matching the packet
   (decoded from a record embedded in junk, so its payload is a view at
   a nonzero offset) must agree with matching the same bytes as a
   string. *)
let prop_rule_view_equals_string =
  QCheck2.Test.make ~name:"ruleset match on a payload view equals string match"
    ~count:500
    QCheck2.Gen.(
      pair gen_payload_with_junk
        (quad nat (int_range 1 8) (int_bound 40) (option (int_range 1 80))))
    (fun ((p, j1, j2), (at, len, offset, depth)) ->
      let n = String.length p in
      let pattern =
        if n = 0 then "x" else String.sub p (at mod n) (min len (n - (at mod n)))
      in
      let rule =
        {
          Rule.proto = Rule.P_ip;
          src = None;
          src_port = None;
          dst = None;
          dst_port = None;
          msg = "cut";
          contents = [ { Rule.pattern; nocase = false; offset; depth } ];
        }
      in
      let raw =
        Packet.to_bytes
          (Packet.build_tcp ~ts:0.0 ~src:(Ipaddr.of_string "1.2.3.4")
             ~dst:(Ipaddr.of_string "10.0.0.1") ~src_port:1 ~dst_port:2 p)
      in
      let viewed =
        Result.get_ok
          (Sanids_ingest.Ingest.decode_record ~linktype:Sanids_pcap.Pcap.linktype_raw
             { Sanids_pcap.Pcap.ts = 0.0; orig_len = String.length raw; data = embedded raw (j1, j2) })
      in
      Slice.offset (Packet.payload viewed) = String.length j1 + 40
      && Rule.match_packet [ rule ] viewed = Rule.match_payload [ rule ] p)

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
      let decode data =
        Sanids_ingest.Ingest.decode_record ~linktype:Sanids_pcap.Pcap.linktype_raw
          { Sanids_pcap.Pcap.ts = 0.0; orig_len = String.length raw; data }
      in
      match (decode (Slice.of_string raw), decode view) with
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

(* Capture bytes to packets, framing included: 4,000 benign packets
   (seed 0x0B0B0B0B) through [Pcap.decode] and [Ingest.ok_packets],
   as raw IPv4 records and as Ethernet frames (how [outbreak] traffic
   is framed, so the link layer's own allocation is gated too). *)
let decode_words ~linktype =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 4000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let module Pcap = Sanids_pcap.Pcap in
  let file_bytes =
    if linktype = Pcap.linktype_ethernet then
      Pcap.encode ~linktype (Pcap.of_packets_ethernet pkts)
    else Pcap.encode ~linktype (Pcap.of_packets pkts)
  in
  let sink = ref 0 in
  let w =
    words_per ~n (fun () ->
        let f = Result.get_ok (Pcap.decode file_bytes) in
        sink := List.length (Sanids_ingest.Ingest.ok_packets f))
  in
  Alcotest.(check int) "all decoded" n !sink;
  w

let test_alloc_decode () =
  (* the copying decode chain read 181.8; the slice chain 119.7 while it
     built each pseudo-header as a 12-byte string and read headers
     through a boxed cursor; 96.7 with the pseudo-header as arithmetic
     and headers read by offset.  It reads 75.4 with addresses as
     immediates, shared TCP flag records and the packet built without
     an intermediate result (checksums still verified), gated at 79.2,
     and 71.4 with the header checksum summed in place instead of over
     a [Slice.sub] view (gated at 75.0).  With the headers checked in
     place and one packet record built per record it reads 42.0; minor
     words are deterministic for the fixed seed, so the bound is about
     5% above that.  [Pcap.decode]'s framing (26.0 words a record) and
     [ok_packets]' list (5) are in this window, so it cannot fall to the
     11 of [decode_record] alone, gated below. *)
  check_below "decode" 44.1 (decode_words ~linktype:Sanids_pcap.Pcap.linktype_raw)

let test_alloc_decode_ethernet () =
  (* 115.7 while the link layer copied both hardware addresses into a
     decoded frame record; 79.4 reading the ethertype and the datagram
     by offset (gated at 83.4); 75.4 with the IPv4 header checksum summed
     in place (gated at 79.2); 42.0 with the headers checked in place
     and one packet record per record, the link layer allocating
     nothing; the bound is about 5% above that *)
  check_below "decode ethernet" 44.1
    (decode_words ~linktype:Sanids_pcap.Pcap.linktype_ethernet)

(* [Ingest.decode_record] alone, over 4,000 benign records (seed
   0x0B0B0B0B) framed as Ethernet beforehand, so [Pcap.decode]'s
   framing and [ok_packets]' list are outside the window: the link
   layer and the header checks.  The layered decoders read 44.4,
   building an IPv4 record, a TCP or UDP record, three views, two boxed
   sequence numbers and two results per record. *)
let test_alloc_decode_record () =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 4000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let module Pcap = Sanids_pcap.Pcap in
  let linktype = Pcap.linktype_ethernet in
  let f = Result.get_ok (Pcap.decode (Pcap.encode ~linktype (Pcap.of_packets_ethernet pkts))) in
  let records = f.Pcap.records and ok = ref 0 in
  let w =
    words_per ~n (fun () ->
        List.iter
          (fun r ->
            match Sanids_ingest.Ingest.decode_record ~linktype r with
            | Ok _ -> incr ok
            | Error _ -> ())
          records)
  in
  Alcotest.(check int) "all decoded" n !ok;
  (* one packet record and its [Ok] per record: it reads 11.001 (the
     [Ok] is 2 words, the packet 9), and the bound is about 5% above *)
  check_below "decode_record" 11.6 w

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
  (* pre-change (copying analyze path): 109.5, and the gate stayed there
     while the slice path read ~47 and then 90.3 with boxed-float stage
     timers and a closure per span.  With integer monotonic stamps and
     closure-free spans it reads 29.0; the bound is about 5% above *)
  check_below "outbreak replay" 30.5 w

let test_alloc_process () =
  let rng = Rng.create 0x0B0B0B0BL in
  let n = 4000 in
  let pkts = Workload.Benign_gen.packets rng ~n ~t0:0.0 ~clients ~servers in
  let p = Pipeline.create Config.default in
  let w = words_per ~n (fun () -> ignore (Pipeline.process_packets p pkts)) in
  (* the copying packet path read 89.7, and the slice path 23.1 while
     the scan detector built a closure per packet (a partial
     application) to test the unused prefixes, and 17.3-17.7 (gated at
     18.6) while every classify span read two boxed gettimeofday floats
     and built a closure.  With integer monotonic stamps, no closure and
     classify timed on about 1 call in 16 it reads 0.001: nothing is
     allocated per benign packet, so the bound is a small absolute one *)
  check_below "benign full process" 1.0 w

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
  (* before the allocation-free scan kernel and suspicion gate: 76607.9,
     and the bound was a third of that.  It read 1267.0-1267.4 (1272
     with a closure per packet in the scan detector) while the decode
     memo decoded and lifted every offset it walked, and 637.6-640.0
     once it did so only on the walks a template is searched on.  With
     the template set compiled once per domain, the scan's scratch
     reused and steps decoded only where the order gate lets a template
     start, it read 358.9 after the suite's earlier tests and 361.5 run
     alone (the domain's one compile of the set lands in the window),
     gated at 375.0.  With closure-free integer-stamp spans it reads
     287.2 after the earlier tests and 292.1 alone (gated at 307.0).
     With the gate's pass recording the %u runs and binary regions it
     closes in reused int buffers, and extraction resuming from where
     the gate stopped, it reads 108.6 after the earlier tests and 113.5
     alone, so the bound is about 5% above the higher *)
  check_below "cold benign process" 119.0 w

(* The scan kernel's own allocation, per byte of frame: the first raw
   frame of each of 200 benign binary uploads (seed 0x7AB1E0BE, as in
   [bench micro]; mean ~609 bytes), scanned with the default templates.
   A fill that boxes a reader, a decoded record, options and a lifted
   list per offset read ~52 words/byte here, and one that built an
   entry plus the instruction's own operands at every walked offset
   ~18.  A memo building entries only on the walks some template is
   searched on read 5.29, with the templates compiled and the memo's
   region-sized arrays allocated per scan.  Compiled once per domain,
   with that scratch reused and steps decoded only where a template
   can start in order, the kernel reads 1.029 after the suite's earlier
   tests and 1.068 run alone (the domain's one compile of the set lands
   in the window); minor words are deterministic for the fixed seed, so
   the bound is 1.13, about 5% above the higher. *)
let benign_binary_uploads () =
  let rng = Rng.create 0x7AB1E0BEL in
  let binary = { Workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  List.init 200 (fun _ -> Slice.of_string (Workload.Benign_gen.payload ~mix:binary rng))

let benign_binary_frames () =
  List.map
    (fun p ->
      match Extractor.extract p with
      | f :: _ -> f.Extractor.data
      | [] -> Alcotest.fail "benign binary payload produced no frame")
    (benign_binary_uploads ())

let test_alloc_scan_per_byte () =
  let frames = benign_binary_frames () in
  let bytes = List.fold_left (fun acc f -> acc + Slice.length f) 0 frames in
  let templates = Sanids_semantic.Template_lib.default_set in
  let w =
    words_per ~n:bytes (fun () ->
        List.iter
          (fun f -> ignore (Sanids_semantic.Matcher.scan_report_slice ~templates f))
          frames)
  in
  if w >= 1.13 then
    Alcotest.failf "benign binary scan: %.3f minor words/byte, must stay below 1.13" w

(* The suspicion gate, then extraction, on the same 200 benign binary
   uploads, in words per payload: every upload passes the gate, so this
   is the cold path's work ahead of the matcher.  While extraction read
   each payload twice more from byte 0 (consing a tuple and a list cell
   per non-text run, and the %u scanner's options) it read 2228.  With
   one resumable pass recording regions in reused int buffers it reads
   26.0 after the suite's earlier tests and 26.2 run alone (the frames
   and their list); the bound is about 5% above the higher. *)
let test_alloc_gate_extract () =
  let uploads = benign_binary_uploads () in
  let frames = ref 0 in
  let w =
    words_per ~n:(List.length uploads) (fun () ->
        List.iter
          (fun p ->
            if Extractor.suspicious p then frames := !frames + List.length (Extractor.extract p))
          uploads)
  in
  Alcotest.(check int) "every upload passes the gate with one frame" (List.length uploads) !frames;
  check_below "gate and extract" 27.5 w

(* The scan's decode memo lives and dies in the minor heap: a minor
   collection right after a finished scan finds next to nothing of it
   still reachable.  A memo slot array longer than 256 words would be a
   major block, and every entry stored into it would be promoted.  Each
   scan starts on a heap just fully collected: a collection that falls
   inside the scan (the runtime's own major-cycle bookkeeping can force
   one, depending on what ran before) promotes the live memo, whatever
   its layout.  The sled case walks 1024-step traces: a per-trace step
   array (or any trace buffer of records) that long is born in the major
   heap holding young memo entries, and the next minor collection would
   promote every one of them. *)
let test_scan_promotes_nothing () =
  let rng = Rng.create 0x9E0907EDL in
  let binary = { Workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  let sled_decoder =
    String.make 3072 '\x90'
    ^ (Sanids_polymorph.Admmutate.generate rng
         ~payload:(Exploits.Shellcodes.find "classic").Exploits.Shellcodes.code)
        .Sanids_polymorph.Admmutate.code
  in
  let payloads =
    List.init 4 (fun _ -> Workload.Benign_gen.payload ~mix:binary rng)
    @ [
        Workload.Adversarial.payload ~kind:Workload.Adversarial.Decoy_decoder ~size:2048 rng;
        sled_decoder;
      ]
  in
  List.iteri
    (fun i payload ->
      Gc.full_major ();
      let minors = (Gc.quick_stat ()).Gc.minor_collections in
      ignore
        (Sanids_semantic.Matcher.scan_report_slice
           ~templates:Sanids_semantic.Template_lib.default_set (Slice.of_string payload));
      let s = Gc.quick_stat () in
      Gc.minor ();
      let promoted = (Gc.quick_stat ()).Gc.promoted_words -. s.Gc.promoted_words in
      if promoted > 64.0 then
        Alcotest.failf
          "scan %d (%d bytes): the next minor collection promoted %.0f words (%d minor \
           collections during the scan)"
          i (String.length payload) promoted (s.Gc.minor_collections - minors))
    payloads

(* ------------------------------------------------------------------ *)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_view_equals_copy;
      prop_extract_offset_invariant;
      prop_rule_view_equals_string;
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
          Alcotest.test_case "scan words/byte" `Quick test_alloc_scan_per_byte;
          Alcotest.test_case "gate and extract words/payload" `Quick test_alloc_gate_extract;
          Alcotest.test_case "scan memo never promoted" `Quick test_scan_promotes_nothing;
          Alcotest.test_case "decode ethernet words/packet" `Quick test_alloc_decode_ethernet;
          Alcotest.test_case "decode_record words/record" `Quick test_alloc_decode_record;
        ] );
    ]
