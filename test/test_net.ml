(* Tests for the network substrate: addresses, codecs, flows, pcap. *)

open Sanids_net
module Pcap = Sanids_pcap.Pcap
module Ingest = Sanids_ingest.Ingest

let ip = Ipaddr.of_string

(* The one bytes -> packet chain, over a raw-IPv4 record. *)
let decode_raw ~ts raw =
  Ingest.decode_record ~linktype:Pcap.linktype_raw
    { Pcap.ts; orig_len = String.length raw; data = Slice.of_string raw }

let decode_file f = List.map (Ingest.decode_record ~linktype:f.Pcap.linktype) f.Pcap.records

let test_ipaddr_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (Ipaddr.to_string (ip s)))
    [ "0.0.0.0"; "10.1.2.3"; "192.168.255.1"; "255.255.255.255" ]

let test_ipaddr_invalid () =
  List.iter
    (fun s ->
      Alcotest.(check (option reject)) s None
        (Option.map (fun _ -> ()) (Ipaddr.of_string_opt s)))
    [ ""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "1..2.3" ]

let test_prefix_mem () =
  let p = Ipaddr.prefix_of_string "192.168.0.0/16" in
  Alcotest.(check bool) "inside" true (Ipaddr.mem (ip "192.168.31.7") p);
  Alcotest.(check bool) "outside" false (Ipaddr.mem (ip "192.169.0.1") p);
  Alcotest.(check bool) "base" true (Ipaddr.mem (ip "192.168.0.0") p);
  let p0 = Ipaddr.prefix (ip "1.2.3.4") 0 in
  Alcotest.(check bool) "len 0 covers all" true (Ipaddr.mem (ip "9.9.9.9") p0);
  let p32 = Ipaddr.prefix (ip "10.0.0.1") 32 in
  Alcotest.(check bool) "len 32 exact" true (Ipaddr.mem (ip "10.0.0.1") p32);
  Alcotest.(check bool) "len 32 other" false (Ipaddr.mem (ip "10.0.0.2") p32)

let test_prefix_nth () =
  let p = Ipaddr.prefix_of_string "10.0.0.0/24" in
  Alcotest.(check string) "nth 5" "10.0.0.5" (Ipaddr.to_string (Ipaddr.nth p 5));
  Alcotest.(check int) "size" 256 (Ipaddr.prefix_size p)

let test_unsigned_compare () =
  (* 200.0.0.0 must compare above 100.0.0.0 despite the sign bit *)
  Alcotest.(check bool) "unsigned order" true
    (Ipaddr.compare (ip "200.0.0.0") (ip "100.0.0.0") > 0)

let test_checksum_known () =
  (* RFC 1071 example: 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d *)
  Alcotest.(check int) "rfc1071" 0x220D
    (Checksum.ones_complement 0 (Slice.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7"))

let a = ip "10.0.0.1"
let b = ip "10.0.0.2"

(* The codecs through both decoders: the reference layers in
   [Decode_ref] (each with the encoder it was paired with) and the view
   decoder [Packet.decode], over the same datagram. *)
module Ref = Decode_ref

let view_decode s = Packet.decode ~ts:0.0 (Slice.of_string s) ~off:0

let ref_datagram ~proto ?(src = a) payload =
  Ref.Ipv4.encode
    { Ref.Ipv4.src; dst = b; proto; ttl = 64; ident = 0; payload = Slice.of_string payload }

let expect_view what = function
  | Ok p -> p
  | Error (Packet.Ipv4_header m | Packet.Tcp_segment m | Packet.Udp_datagram m) ->
      Alcotest.failf "%s: %s" what m

let test_ipv4_roundtrip () =
  let t =
    { Ref.Ipv4.src = a; dst = b; proto = 200; ttl = 63; ident = 77;
      payload = Slice.of_string "hello" }
  in
  (match Ref.Ipv4.decode (Slice.of_string (Ref.Ipv4.encode t)) with
  | Ok t' ->
      Alcotest.(check string) "payload" "hello" (Slice.to_string t'.Ref.Ipv4.payload);
      Alcotest.(check bool) "src" true (Ipaddr.equal t'.Ref.Ipv4.src a);
      Alcotest.(check int) "ttl" 63 t'.Ref.Ipv4.ttl;
      Alcotest.(check int) "ident" 77 t'.Ref.Ipv4.ident
  | Error e -> Alcotest.failf "decode failed: %s" e);
  let p = expect_view "view" (view_decode (Ref.Ipv4.encode t)) in
  Alcotest.(check string) "view payload" "hello" (Packet.payload_string p);
  Alcotest.(check bool) "view addresses" true
    (Ipaddr.equal (Packet.src p) a && Ipaddr.equal (Packet.dst p) b);
  Alcotest.(check int) "view proto" 200 (Packet.proto p)

let test_ipv4_corrupt_checksum () =
  let raw = Bytes.of_string (ref_datagram ~proto:6 "") in
  Bytes.set raw 8 '\xFF';
  (* ttl tampered *)
  (match Ref.Ipv4.decode (Slice.of_string (Bytes.to_string raw)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered header must not decode");
  match view_decode (Bytes.to_string raw) with
  | Error (Packet.Ipv4_header m) -> Alcotest.(check string) "view" "bad header checksum" m
  | _ -> Alcotest.fail "tampered header must not decode in place"

let test_tcp_roundtrip () =
  let seg =
    {
      Ref.Tcp.src_port = 3127;
      dst_port = 80;
      seq = 0xDEAD0000l;
      ack_no = 5l;
      flags = Tcp.flags_pshack;
      window = 1024;
      payload = Slice.of_string "GET / HTTP/1.0\r\n\r\n";
    }
  in
  let bytes = Ref.Tcp.encode ~src:a ~dst:b seg in
  (match Ref.Tcp.decode ~src:a ~dst:b (Slice.of_string bytes) with
  | Ok seg' ->
      Alcotest.(check int) "sport" 3127 seg'.Ref.Tcp.src_port;
      Alcotest.(check string) "payload"
        (Slice.to_string seg.Ref.Tcp.payload)
        (Slice.to_string seg'.Ref.Tcp.payload);
      Alcotest.(check bool) "flags" true (seg'.Ref.Tcp.flags = Tcp.flags_pshack)
  | Error e -> Alcotest.failf "tcp decode: %s" e);
  let p = expect_view "view" (view_decode (ref_datagram ~proto:6 bytes)) in
  Alcotest.(check (option (pair int int))) "view ports" (Some (3127, 80)) (Packet.ports p);
  Alcotest.(check string) "view payload" "GET / HTTP/1.0\r\n\r\n" (Packet.payload_string p);
  Alcotest.(check int) "view seq" 0xDEAD0000 (Packet.seq p);
  Alcotest.(check int) "view flags" (Tcp.flags_byte Tcp.flags_pshack) p.Packet.flags

let test_tcp_wrong_pseudo_header () =
  let seg =
    {
      Ref.Tcp.src_port = 1; dst_port = 2; seq = 0l; ack_no = 0l;
      flags = Tcp.flags_ack; window = 1; payload = Slice.of_string "x";
    }
  in
  let bytes = Ref.Tcp.encode ~src:a ~dst:b seg in
  (* decoding against a different address must fail the checksum (note:
     merely swapping src and dst would NOT change a one's-complement sum,
     which is commutative over the pseudo-header words) *)
  (match Ref.Tcp.decode ~src:(ip "10.9.9.9") ~dst:b (Slice.of_string bytes) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checksum must bind addresses");
  match view_decode (ref_datagram ~proto:6 ~src:(ip "10.9.9.9") bytes) with
  | Error (Packet.Tcp_segment m) -> Alcotest.(check string) "view" "bad checksum" m
  | _ -> Alcotest.fail "checksum must bind the header's addresses"

let test_udp_roundtrip () =
  let d = { Ref.Udp.src_port = 5353; dst_port = 53; payload = Slice.of_string "query" } in
  let bytes = Ref.Udp.encode ~src:a ~dst:b d in
  (match Ref.Udp.decode ~src:a ~dst:b (Slice.of_string bytes) with
  | Ok d' -> Alcotest.(check string) "payload" "query" (Slice.to_string d'.Ref.Udp.payload)
  | Error e -> Alcotest.failf "udp decode: %s" e);
  let p = expect_view "view" (view_decode (ref_datagram ~proto:17 bytes)) in
  Alcotest.(check string) "view payload" "query" (Packet.payload_string p);
  Alcotest.(check (option (pair int int))) "view ports" (Some (5353, 53)) (Packet.ports p);
  Alcotest.(check bool) "view is udp" true (Packet.is_udp p && not (Packet.is_tcp p))

let test_packet_roundtrip () =
  let p =
    Packet.build_tcp ~ts:1.5 ~src:a ~dst:b ~src_port:1234 ~dst_port:80 "payload!"
  in
  (* a built packet's datagram is encoded once: [to_bytes] copies nothing *)
  Alcotest.(check bool) "to_bytes shares" true (Packet.to_bytes p == Packet.to_bytes p);
  match decode_raw ~ts:1.5 (Packet.to_bytes p) with
  | Ok p' ->
      Alcotest.(check string) "payload" "payload!" (Packet.payload_string p');
      Alcotest.(check (option (pair int int))) "ports" (Some (1234, 80)) (Packet.ports p')
  | Error e -> Alcotest.failf "packet parse: %s" (Ingest.error_to_string e)

let test_flow_reassembly () =
  let r = Flow.create_reassembler () in
  let seg seq payload =
    Packet.build_tcp ~ts:0.0 ~src:a ~dst:b ~src_port:99 ~dst_port:80 ~seq payload
  in
  (* in-order, then a gap, then the gap fills *)
  Alcotest.(check (option string)) "first" (Some "hello ") (Flow.push r (seg 1000l "hello "));
  Alcotest.(check (option string)) "gap buffered" None (Flow.push r (seg 1011l "!"));
  Alcotest.(check (option string)) "gap filled" (Some "hello world!")
    (Flow.push r (seg 1006l "world"));
  Alcotest.(check int) "one flow" 1 (Flow.flow_count r)

let test_flow_duplicate_ignored () =
  let r = Flow.create_reassembler () in
  let seg seq payload =
    Packet.build_tcp ~ts:0.0 ~src:a ~dst:b ~src_port:99 ~dst_port:80 ~seq payload
  in
  ignore (Flow.push r (seg 2000l "abc"));
  Alcotest.(check (option string)) "dup dropped" None (Flow.push r (seg 2000l "abc"))

(* Reassembly indexes a segment by its sequence number less the flow's
   first, modulo 2^32: a stream that starts 16 bytes below the wrap
   and fills a gap on its far side is still one contiguous stream. *)
let test_flow_reassembly_wrap () =
  let r = Flow.create_reassembler () in
  let seg seq payload =
    Packet.build_tcp ~ts:0.0 ~src:a ~dst:b ~src_port:99 ~dst_port:80 ~seq payload
  in
  let head = "0123456789abcdefghijkl" (* 22 bytes: up to seq 0x00000006 *) in
  Alcotest.(check (option string)) "first" (Some head) (Flow.push r (seg 0xFFFF_FFF0l head));
  Alcotest.(check (option string)) "gap buffered" None (Flow.push r (seg 0x0000_000Al "tail"));
  Alcotest.(check (option string)) "gap filled across the wrap" (Some (head ^ "mnoptail"))
    (Flow.push r (seg 0x0000_0006l "mnop"));
  Alcotest.(check int) "one flow" 1 (Flow.flow_count r)

(* Datagrams built byte by byte, for the header shapes the packet
   builders never emit: IPv4 options (IHL 6-15), TCP options (data
   offset 6-15), a zero UDP checksum, other protocols.  Checksums are
   the reference sum (defined below with the checksum oracles). *)
let wire_sum s =
  let acc = ref 0 and n = String.length s and i = ref 0 in
  while !i < n do
    let lo = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    acc := !acc + (Char.code s.[!i] lsl 8) + lo;
    i := !i + 2
  done;
  let rec fold x = if x > 0xFFFF then fold ((x land 0xFFFF) + (x lsr 16)) else x in
  lnot (fold !acc) land 0xFFFF

let wire_pseudo ~src ~dst ~proto ~len =
  let b = Bytes.make 12 '\000' in
  Bytes.set_int32_be b 0 (Ipaddr.to_int32 src);
  Bytes.set_int32_be b 4 (Ipaddr.to_int32 dst);
  Bytes.set_uint8 b 9 proto;
  Bytes.set_uint16_be b 10 len;
  Bytes.to_string b

(* A TCP segment with [opts] (a multiple of 4 bytes) between its fixed
   header and [payload]; checksum field zero. *)
let wire_tcp ?(opts = "") ~src_port ~dst_port ~seq ~flags payload =
  let hlen = 20 + String.length opts in
  let b = Bytes.make (hlen + String.length payload) '\000' in
  Bytes.set_uint16_be b 0 src_port;
  Bytes.set_uint16_be b 2 dst_port;
  Bytes.set_int32_be b 4 seq;
  Bytes.set_uint8 b 12 ((hlen / 4) lsl 4);
  Bytes.set_uint8 b 13 flags;
  Bytes.set_uint16_be b 14 4096;
  Bytes.blit_string opts 0 b 20 (String.length opts);
  Bytes.blit_string payload 0 b hlen (String.length payload);
  Bytes.to_string b

let wire_udp ~src_port ~dst_port payload =
  let b = Bytes.make (8 + String.length payload) '\000' in
  Bytes.set_uint16_be b 0 src_port;
  Bytes.set_uint16_be b 2 dst_port;
  Bytes.set_uint16_be b 4 (Bytes.length b);
  Bytes.blit_string payload 0 b 8 (String.length payload);
  Bytes.to_string b

(* An IPv4 datagram with [ip_opts] (a multiple of 4 bytes) after its
   fixed header; a TCP or UDP [l4] gets its checksum filled in. *)
let wire_datagram ?(ip_opts = "") ?(src = a) ?(dst = b) ~proto l4 =
  let l4 = Bytes.of_string l4 in
  let len = Bytes.length l4 in
  let csum_at = if proto = 6 then Some 16 else if proto = 17 then Some 6 else None in
  Option.iter
    (fun at ->
      let c = wire_sum (wire_pseudo ~src ~dst ~proto ~len ^ Bytes.to_string l4) in
      Bytes.set_uint16_be l4 at (if proto = 17 && c = 0 then 0xFFFF else c))
    csum_at;
  let ihl = 20 + String.length ip_opts in
  let h = Bytes.make ihl '\000' in
  Bytes.set_uint8 h 0 (0x40 lor (ihl / 4));
  Bytes.set_uint16_be h 2 (ihl + len);
  Bytes.set_uint8 h 8 64;
  Bytes.set_uint8 h 9 proto;
  Bytes.set_int32_be h 12 (Ipaddr.to_int32 src);
  Bytes.set_int32_be h 16 (Ipaddr.to_int32 dst);
  Bytes.blit_string ip_opts 0 h 20 (String.length ip_opts);
  Bytes.set_uint16_be h 10 (wire_sum (Bytes.to_string h));
  Bytes.to_string h ^ Bytes.to_string l4

let options n = String.init n (fun i -> Char.chr (if i = n - 1 then 0 else 1 + (i mod 7)))

let expect_packet what = function
  | Ok p -> p
  | Error e -> Alcotest.failf "%s: %s" what (Ingest.error_to_string e)

let test_ipv4_options () =
  for ihl = 6 to 15 do
    let l4 = wire_tcp ~src_port:1025 ~dst_port:80 ~seq:7l ~flags:0x18 "behind options" in
    let d = wire_datagram ~ip_opts:(options ((ihl - 5) * 4)) ~proto:6 l4 in
    let p = expect_packet (Printf.sprintf "IHL %d" ihl) (decode_raw ~ts:0.0 d) in
    Alcotest.(check string) "payload" "behind options" (Packet.payload_string p);
    Alcotest.(check (option (pair int int))) "ports" (Some (1025, 80)) (Packet.ports p);
    Alcotest.(check bool) "addresses" true
      (Ipaddr.equal (Packet.src p) a && Ipaddr.equal (Packet.dst p) b)
  done

let test_tcp_options () =
  for doff = 6 to 15 do
    let opts = options ((doff - 5) * 4) in
    let l4 = wire_tcp ~opts ~src_port:3127 ~dst_port:80 ~seq:9l ~flags:0x18 "after options" in
    let p =
      expect_packet (Printf.sprintf "data offset %d" doff)
        (decode_raw ~ts:0.0 (wire_datagram ~proto:6 l4))
    in
    Alcotest.(check string) "payload" "after options" (Packet.payload_string p);
    Alcotest.(check int) "payload offset" (20 + (doff * 4)) (Slice.offset (Packet.payload p))
  done

(* A zero UDP checksum field means "not computed": such a datagram is
   accepted whatever its bytes. *)
let test_udp_zero_checksum () =
  let d = Bytes.of_string (wire_datagram ~proto:17 (wire_udp ~src_port:53 ~dst_port:5353 "answer")) in
  Bytes.set_uint16_be d 26 0;
  let p = expect_packet "zero checksum" (decode_raw ~ts:0.0 (Bytes.to_string d)) in
  Alcotest.(check string) "payload" "answer" (Packet.payload_string p);
  Alcotest.(check (option (pair int int))) "ports" (Some (53, 5353)) (Packet.ports p);
  Bytes.set d 28 'A';
  let p = expect_packet "zero checksum, payload changed" (decode_raw ~ts:0.0 (Bytes.to_string d)) in
  Alcotest.(check string) "unchecked payload" "Answer" (Packet.payload_string p)

(* Neither TCP nor UDP: still a packet, its payload the IP payload. *)
let test_raw_protocol () =
  let p = expect_packet "proto 200" (decode_raw ~ts:0.5 (wire_datagram ~proto:200 "raw bytes")) in
  Alcotest.(check string) "payload" "raw bytes" (Packet.payload_string p);
  Alcotest.(check (option (pair int int))) "no ports" None (Packet.ports p);
  Alcotest.(check bool) "not tcp" false (Packet.is_tcp p);
  Alcotest.(check bool) "source" true (Ipaddr.equal (Packet.src p) a)

(* The flag byte travels as sent: the view decoder reports all eight
   bits, the reference's flag record the six it models, and a builder
   given that record sends those six back. *)
let test_tcp_flags_shared () =
  for byte = 0 to 255 do
    let d = wire_datagram ~proto:6 (wire_tcp ~src_port:1 ~dst_port:2 ~seq:3l ~flags:byte "f") in
    let p = expect_packet (Printf.sprintf "flags 0x%02x" byte) (decode_raw ~ts:0.0 d) in
    if p.Packet.flags <> byte then Alcotest.failf "flags of 0x%02x read 0x%02x" byte p.Packet.flags;
    (match Ref.decode_record ~linktype:Pcap.linktype_raw
             { Pcap.ts = 0.0; orig_len = String.length d; data = Slice.of_string d } with
    | Ok { Ref.l4 = Ref.Tcp_seg s; _ } ->
        if Tcp.flags_byte s.Ref.Tcp.flags <> byte land 63 then
          Alcotest.failf "reference flags of 0x%02x" byte
    | _ -> Alcotest.failf "reference rejected flags 0x%02x" byte);
    let built =
      Packet.build_tcp ~ts:0.0 ~src:a ~dst:b ~src_port:1 ~dst_port:2
        ~flags:(Ref.Tcp.flags_of_byte byte) ""
    in
    if built.Packet.flags <> byte land 63 then Alcotest.failf "built flags of 0x%02x" byte
  done;
  Alcotest.(check bool) "pshack" true (Ref.Tcp.flags_of_byte 0x18 = Tcp.flags_pshack)

let test_pcap_roundtrip () =
  let pkts =
    [
      Packet.build_tcp ~ts:0.25 ~src:a ~dst:b ~src_port:1 ~dst_port:2 "one";
      Packet.build_udp ~ts:1.75 ~src:b ~dst:a ~src_port:3 ~dst_port:4 "two";
    ]
  in
  let f =
    match Sanids_pcap.Pcap.decode (Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts)) with
    | Ok f -> f
    | Error m -> Alcotest.failf "decode: %s" m
  in
  Alcotest.(check int) "linktype" Sanids_pcap.Pcap.linktype_raw f.Sanids_pcap.Pcap.linktype;
  match decode_file f with
  | [ Ok p1; Ok p2 ] ->
      Alcotest.(check string) "p1" "one" (Packet.payload_string p1);
      Alcotest.(check string) "p2" "two" (Packet.payload_string p2);
      Alcotest.(check (float 0.001)) "ts" 1.75 p2.Packet.ts
  | _ -> Alcotest.fail "expected two parsed packets"

let test_pcap_bad_magic () =
  match Sanids_pcap.Pcap.decode (String.make 40 'z') with
  | Error m -> Alcotest.(check string) "framing fault" "bad magic" m
  | Ok _ -> Alcotest.fail "expected a decode error"

let test_pcap_file_io () =
  let path = Filename.temp_file "sanids" ".pcap" in
  let pkts = [ Packet.build_tcp ~ts:3.5 ~src:a ~dst:b ~src_port:5 ~dst_port:6 "disk" ] in
  Result.get_ok (File.write path (Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts)));
  let f =
    match Sanids_pcap.Pcap.decode (In_channel.with_open_bin path In_channel.input_all) with
    | Ok f -> f
    | Error m -> Alcotest.failf "decode: %s" m
  in
  Sys.remove path;
  Alcotest.(check int) "one record" 1 (List.length f.Sanids_pcap.Pcap.records)

(* property: arbitrary payloads round-trip through TCP packets *)
let prop_packet_roundtrip =
  QCheck2.Test.make ~name:"packet encode/parse roundtrip" ~count:300
    QCheck2.Gen.(string_size (int_bound 1200))
    (fun payload ->
      let p = Packet.build_tcp ~ts:0.0 ~src:a ~dst:b ~src_port:10 ~dst_port:20 payload in
      match decode_raw ~ts:0.0 (Packet.to_bytes p) with
      | Ok p' -> Slice.equal_string (Packet.payload p') payload
      | Error _ -> false)

let prop_checksum_detects_flip =
  QCheck2.Test.make ~name:"single byte flip breaks ipv4 decode or payload differs" ~count:200
    QCheck2.Gen.(pair (string_size (int_range 1 100)) (int_bound 10000))
    (fun (payload, flip) ->
      let raw = ref_datagram ~proto:200 payload in
      let pos = flip mod min 20 (String.length raw) in
      let bytes = Bytes.of_string raw in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x5A));
      let flipped = Bytes.to_string bytes in
      (* flips that survive decoding must not masquerade as intact:
         only flips that keep the checksum valid would, which a single
         bit flip cannot *)
      (match Ref.Ipv4.decode (Slice.of_string flipped) with
      | Error _ -> true
      | Ok t -> not (Slice.equal_string t.Ref.Ipv4.payload payload))
      &&
      match view_decode flipped with
      | Error _ -> true
      | Ok p -> not (Slice.equal_string (Packet.payload p) payload))

let test_ethernet_mac () =
  let m = Ethernet.mac_of_string "aa:bb:cc:00:11:ff" in
  Alcotest.(check string) "roundtrip" "aa:bb:cc:00:11:ff" (Ethernet.mac_to_string m);
  Alcotest.(check bool) "bad mac is None" true
    (Ethernet.mac_of_string_opt "nonsense" = None);
  Alcotest.(check bool) "good mac parses" true
    (Ethernet.mac_of_string_opt "02:00:00:00:00:01" <> None);
  Alcotest.(check bool) "broadcast differs" false
    (Ethernet.mac_equal m Ethernet.mac_broadcast)

(* Ethernet frames go through the one decode path, by offset. *)
let decode_ethernet frame =
  Ingest.decode_record ~linktype:Pcap.linktype_ethernet
    { Pcap.ts = 0.25; orig_len = String.length frame; data = Slice.of_string frame }

let frame ?(src = Ethernet.mac_of_string "02:00:00:00:00:09")
    ?(ethertype = Ethernet.ethertype_ipv4) datagram =
  Ethernet.encode
    { Ethernet.dst = Ethernet.mac_broadcast; src; ethertype; payload = Slice.of_string datagram }

let test_ethernet_frame_roundtrip () =
  let datagram =
    Packet.to_bytes (Packet.build_tcp ~ts:0.25 ~src:a ~dst:b ~src_port:7 ~dst_port:8 "datagram-bytes")
  in
  let f = frame datagram in
  (match decode_ethernet f with
  | Ok p ->
      Alcotest.(check string) "payload" "datagram-bytes" (Packet.payload_string p);
      Alcotest.(check bool) "addresses" true
        (Ipaddr.equal (Packet.src p) a && Ipaddr.equal (Packet.dst p) b);
      (* the payload is a view into the frame: nothing was copied *)
      Alcotest.(check bool) "view" true (Slice.base (Packet.payload p) == f);
      Alcotest.(check int) "offset" (14 + 20 + 20) (Slice.offset (Packet.payload p))
  | Error e -> Alcotest.failf "decode: %s" (Ingest.error_to_string e));
  (* the hardware addresses are never read *)
  (match decode_ethernet (frame ~src:Ethernet.mac_broadcast datagram) with
  | Ok p -> Alcotest.(check string) "any source mac" "datagram-bytes" (Packet.payload_string p)
  | Error e -> Alcotest.failf "decode: %s" (Ingest.error_to_string e));
  match decode_ethernet (frame ~ethertype:0x86DD datagram) with
  | Error (Ingest.Link_layer m) -> Alcotest.(check string) "ethertype" "ethertype 0x86dd" m
  | Error e -> Alcotest.failf "wrong layer: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "a non-IPv4 ethertype must not decode"

let test_ethernet_short_frame () =
  (match decode_ethernet "short" with
  | Error (Ingest.Link_layer m) -> Alcotest.(check string) "short" "ethernet: short frame" m
  | Error e -> Alcotest.failf "wrong layer: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "short frame must not decode");
  (* a whole header and no datagram is IPv4's to reject *)
  match decode_ethernet (frame "") with
  | Error (Ingest.Ipv4_header _) -> ()
  | Error e -> Alcotest.failf "wrong layer: %s" (Ingest.error_to_string e)
  | Ok _ -> Alcotest.fail "empty datagram must not decode"

let test_pcap_ethernet_linktype () =
  let pkts =
    [ Packet.build_tcp ~ts:0.5 ~src:a ~dst:b ~src_port:7 ~dst_port:8 "framed" ]
  in
  let bytes =
    Sanids_pcap.Pcap.encode ~linktype:Sanids_pcap.Pcap.linktype_ethernet
      (Sanids_pcap.Pcap.of_packets_ethernet pkts)
  in
  let f =
    match Sanids_pcap.Pcap.decode bytes with
    | Ok f -> f
    | Error m -> Alcotest.failf "decode: %s" m
  in
  Alcotest.(check int) "linktype" Sanids_pcap.Pcap.linktype_ethernet
    f.Sanids_pcap.Pcap.linktype;
  match decode_file f with
  | [ Ok p ] ->
      Alcotest.(check string) "payload through framing" "framed" (Packet.payload_string p)
  | _ -> Alcotest.fail "expected one parsed packet"

(* Reference checksum for the oracles below: the pseudo-header built as
   its 12 bytes, then a byte-pair loop over a string, folded at the
   end — the pre-arithmetic construction, kept here as the reference. *)
let ref_pseudo_bytes ~src ~dst ~proto ~len =
  let b = Bytes.create 12 in
  Bytes.set_int32_be b 0 (Ipaddr.to_int32 src);
  Bytes.set_int32_be b 4 (Ipaddr.to_int32 dst);
  Bytes.set_uint8 b 8 0;
  Bytes.set_uint8 b 9 proto;
  Bytes.set_uint16_be b 10 len;
  Bytes.to_string b

let ref_sum s =
  let acc = ref 0 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    let lo = if !i + 1 < n then Char.code s.[!i + 1] else 0 in
    acc := !acc + (Char.code s.[!i] lsl 8) + lo;
    i := !i + 2
  done;
  !acc

let rec ref_fold x = if x > 0xFFFF then ref_fold ((x land 0xFFFF) + (x lsr 16)) else x
let ref_checksum s = lnot (ref_fold (ref_sum s)) land 0xFFFF

let random_addr rng = Ipaddr.of_int32 (Int64.to_int32 (Rng.int64 rng))

let prop_pseudo_header_arith =
  QCheck2.Test.make
    ~name:"arithmetic pseudo-header sum ≡ byte-pair sum over the materialised 12-byte pseudo-header"
    ~count:500 ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let src = random_addr rng and dst = random_addr rng in
      let proto = if Rng.bool rng then 6 else 17 in
      let len = Rng.int rng 65536 in
      let ph = ref_pseudo_bytes ~src ~dst ~proto ~len in
      let term =
        Checksum.pseudo_header ~src:(Ipaddr.to_int src) ~dst:(Ipaddr.to_int dst) ~proto ~len
      in
      (* and as a running-sum term ahead of a segment of either parity *)
      let seg = Rng.bytes rng (Rng.int rng 64) in
      term = ref_sum ph
      && Checksum.ones_complement term (Slice.of_string seg) = ref_checksum (ph ^ seg))

(* A segment for the acceptance oracle: a valid TCP segment or UDP
   datagram between random addresses, then maybe a byte corrupted
   (never the TCP data offset or the UDP length, so the structure stays
   valid), maybe its checksum field re-fixed by the reference, and maybe
   decoded against another source address. *)
let checksum_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let src = random_addr rng and dst = random_addr rng in
  let tcp = Rng.bool rng in
  let payload = Slice.of_string (Rng.bytes rng (Rng.int rng 300)) in
  let raw =
    if tcp then
      Ref.Tcp.encode ~src ~dst
        { Ref.Tcp.src_port = Rng.int rng 65536; dst_port = Rng.int rng 65536;
          seq = Int64.to_int32 (Rng.int64 rng); ack_no = 0l; flags = Tcp.flags_ack;
          window = Rng.int rng 65536; payload }
    else
      Ref.Udp.encode ~src ~dst
        { Ref.Udp.src_port = Rng.int rng 65536; dst_port = Rng.int rng 65536; payload }
  in
  let b = Bytes.of_string raw in
  let csum_at = if tcp then 16 else 6 in
  if Rng.bool rng then begin
    let pos = Rng.int rng (Bytes.length b) in
    if not (if tcp then pos = 12 else pos = 4 || pos = 5) then
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 + Rng.int rng 255))
  end;
  let proto = if tcp then 6 else 17 in
  let dec_src = if Rng.int rng 4 = 0 then random_addr rng else src in
  if Rng.bool rng then begin
    Bytes.set_uint16_be b csum_at 0;
    let ph = ref_pseudo_bytes ~src:dec_src ~dst ~proto ~len:(Bytes.length b) in
    Bytes.set_uint16_be b csum_at (ref_checksum (ph ^ Bytes.to_string b))
  end;
  (tcp, dec_src, dst, Bytes.to_string b)

(* Both decoders: the reference layer given the addresses, and the view
   decoder reading them from an IPv4 header around the segment. *)
let prop_decode_accepts_ref_checksum =
  QCheck2.Test.make
    ~name:"Tcp/Udp.decode accept exactly the segments whose reference checksum is zero"
    ~count:1000 ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let tcp, src, dst, seg = checksum_case seed in
      let proto = if tcp then 6 else 17 in
      let ok = ref_checksum (ref_pseudo_bytes ~src ~dst ~proto ~len:(String.length seg) ^ seg) = 0 in
      let datagram =
        Ref.Ipv4.encode
          { Ref.Ipv4.src; dst; proto; ttl = 64; ident = 0; payload = Slice.of_string seg }
      in
      let view_ok = Result.is_ok (view_decode datagram) in
      if tcp then Result.is_ok (Ref.Tcp.decode ~src ~dst (Slice.of_string seg)) = ok && view_ok = ok
      else
        (* a zero UDP checksum field means "not computed" *)
        let ok = ok || String.get_uint16_be seg 6 = 0 in
        Result.is_ok (Ref.Udp.decode ~src ~dst (Slice.of_string seg)) = ok && view_ok = ok)

(* The oracle "view decoder ≡ reference decoder".  A case is a TCP, UDP
   or raw-protocol datagram with random header options, as a raw record
   or in an Ethernet frame, maybe with trailing link padding, placed at
   a random offset inside a larger string; then, in most cases, one
   mutation aimed at a check: a truncation at a header boundary, a bad
   version, IHL, total length, data offset or UDP length, a flipped
   checksum byte, a zeroed UDP checksum, another ethertype or linktype,
   or any byte flipped.  Half the IPv4-header mutations re-fix the
   header checksum, so the checks behind it are reached. *)
let oracle_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let src = random_addr rng and dst = random_addr rng in
  (* one case in 64 is near the largest datagram, where the total
     length field uses its top bit *)
  let size = if Rng.int rng 64 = 0 then 0xFFFF - 120 - Rng.int rng 2000 else Rng.int rng 200 in
  let payload = Rng.bytes rng size in
  let port () = Rng.int rng 65536 in
  let proto, l4 =
    match Rng.int rng 3 with
    | 0 ->
        let opts = options (4 * Rng.int rng 11) in
        ( 6,
          wire_tcp ~opts ~src_port:(port ()) ~dst_port:(port ())
            ~seq:(Int64.to_int32 (Rng.int64 rng)) ~flags:(Rng.int rng 256) payload )
    | 1 -> (17, wire_udp ~src_port:(port ()) ~dst_port:(port ()) payload)
    | _ -> ([| 0; 1; 47; 50; 200; 255 |].(Rng.int rng 6), payload)
  in
  let d = wire_datagram ~ip_opts:(options (4 * Rng.int rng 11)) ~src ~dst ~proto l4 in
  let ethernet = Rng.bool rng in
  let link = if ethernet then 14 else 0 in
  let frame = if ethernet then String.make 12 '\x02' ^ "\x08\x00" ^ d else d in
  let pad = if Rng.int rng 4 = 0 then Rng.bytes rng (1 + Rng.int rng 20) else "" in
  let r = Bytes.of_string (frame ^ pad) in
  let ihl = 4 * (Char.code d.[0] land 0xF) in
  let l4_at = link + ihl in
  let hlen = match proto with 6 -> 4 * (Char.code l4.[12] lsr 4) | 17 -> 8 | _ -> 0 in
  let fix_ip_checksum () =
    let ihl = 4 * (Bytes.get_uint8 r link land 0xF) in
    if Rng.bool rng && ihl >= 20 && link + ihl <= Bytes.length r then begin
      Bytes.set_uint16_be r (link + 10) 0;
      Bytes.set_uint16_be r (link + 10) (wire_sum (Bytes.sub_string r link ihl))
    end
  in
  let xor_byte at = Bytes.set_uint8 r at (Bytes.get_uint8 r at lxor (1 + Rng.int rng 255)) in
  let len = ref (Bytes.length r) and linktype = ref Pcap.linktype_raw in
  if ethernet then linktype := Pcap.linktype_ethernet;
  (match Rng.int rng 12 with
  | 0 ->
      let cuts =
        [ 0; link - 1; link; link + 1; link + 19; link + 20; l4_at - 1; l4_at; l4_at + 7;
          l4_at + 8; l4_at + 19; l4_at + 20; l4_at + hlen - 1; l4_at + hlen;
          String.length frame - 1 ]
        |> List.filter (fun c -> c >= 0 && c < Bytes.length r)
      in
      len := List.nth cuts (Rng.int rng (List.length cuts))
  | 1 ->
      Bytes.set_uint8 r link ((Bytes.get_uint8 r link land 0xF0) lor Rng.int rng 16);
      fix_ip_checksum ()
  | 2 ->
      Bytes.set_uint8 r link ((Rng.int rng 16 lsl 4) lor (Bytes.get_uint8 r link land 0xF));
      fix_ip_checksum ()
  | 3 ->
      let total = Bytes.get_uint16_be r (link + 2) in
      Bytes.set_uint16_be r (link + 2)
        (match Rng.int rng 4 with
        | 0 -> Rng.int rng 65536
        | 1 -> Rng.int rng ihl (* below the header *)
        | 2 -> total + 1 + Rng.int rng 8 (* past the datagram, maybe into the padding *)
        | _ -> max 0 (total - 24 + Rng.int rng 48));
      fix_ip_checksum ()
  | 4 when proto = 6 ->
      Bytes.set_uint8 r (l4_at + 12) ((Rng.int rng 16 lsl 4) lor (Bytes.get_uint8 r (l4_at + 12) land 0xF))
  | 5 when proto = 17 ->
      Bytes.set_uint16_be r (l4_at + 4) (Rng.int rng (String.length l4 + 12))
  | 6 -> xor_byte (link + 10 + Rng.int rng 2)
  | 7 when proto = 6 -> xor_byte (l4_at + 16 + Rng.int rng 2)
  | 7 when proto = 17 -> xor_byte (l4_at + 6 + Rng.int rng 2)
  | 8 when proto = 17 -> Bytes.set_uint16_be r (l4_at + 6) 0
  | 8 | 9 ->
      if ethernet then
        Bytes.set_uint16_be r 12 [| 0x86DD; 0x0806; 0x8100; Rng.int rng 65536 |].(Rng.int rng 4)
      else linktype := [| 0; 105; 113; 12345 |].(Rng.int rng 4)
  | 10 -> xor_byte (Rng.int rng (Bytes.length r))
  | _ -> ());
  let junk1 = Rng.bytes rng (Rng.int rng 24) and junk2 = Rng.bytes rng (Rng.int rng 24) in
  let base = junk1 ^ Bytes.sub_string r 0 !len ^ junk2 in
  let data = Slice.sub (Slice.of_string base) ~off:(String.length junk1) ~len:!len in
  (!linktype, { Pcap.ts = 0.125; orig_len = !len; data })

let agree (p : Packet.t) (r : Ref.packet) =
  let ref_payload = Ref.payload r in
  let ip = r.Ref.ip in
  (* the reference's flag record models six bits: the whole byte is
     read from its view of the segment *)
  let seq, flags =
    match r.Ref.l4 with
    | Ref.Tcp_seg s ->
        let byte = Slice.get_u8 ip.Ref.Ipv4.payload 13 in
        assert (Tcp.flags_byte s.Ref.Tcp.flags = byte land 63);
        (Int32.to_int s.Ref.Tcp.seq land 0xFFFF_FFFF, byte)
    | Ref.Udp_dgram _ | Ref.Raw _ -> (0, 0)
  in
  p.Packet.ts = r.Ref.ts
  && Ipaddr.equal (Packet.src p) ip.Ref.Ipv4.src
  && Ipaddr.equal (Packet.dst p) ip.Ref.Ipv4.dst
  && Packet.proto p = ip.Ref.Ipv4.proto
  && Packet.ports p = Ref.ports r
  && Packet.seq p = seq
  && p.Packet.flags = flags
  && Packet.payload_length p = Slice.length ref_payload
  && Slice.base (Packet.payload p) == Slice.base ref_payload
  && Slice.offset (Packet.payload p) = Slice.offset ref_payload
  && Packet.payload_string p = Slice.to_string ref_payload

let prop_view_decoder_reference =
  QCheck2.Test.make ~name:"view decoder ≡ reference decoder" ~count:3000
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let linktype, record = oracle_case seed in
      match (Ingest.decode_record ~linktype record, Ref.decode_record ~linktype record) with
      | Ok p, Ok r -> agree p r
      | Error e, Error e' -> e = e'
      | Ok _, Error e -> QCheck2.Test.fail_reportf "only the reference rejects: %s" (Ingest.error_to_string e)
      | Error e, Ok _ -> QCheck2.Test.fail_reportf "only the view rejects: %s" (Ingest.error_to_string e))

(* The word-wide sum against the byte-pair reference above, over a
   slice at a random offset in a larger string: both parities and every
   alignment mod 8 of the start, lengths 0..2,000 (odd ones included),
   and an [acc] up to the largest pseudo-header term.  A quarter of the
   cases are all 0xFF bytes, the sum with the most carries. *)
let max_pseudo_term = (4 * 0xFFFF) + 0xFF + 0xFFFF

let prop_word_sum =
  QCheck2.Test.make ~name:"word-wide ones_complement ≡ byte-pair reference" ~count:2000
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let len = Rng.int rng 2001 in
      let off = Rng.int rng 16 and pad = Rng.int rng 16 in
      let s =
        if Rng.int rng 4 = 0 then String.make (off + len + pad) '\xFF'
        else Rng.bytes rng (off + len + pad)
      in
      let acc = Rng.int rng (max_pseudo_term + 1) in
      let expected = lnot (ref_fold (acc + ref_sum (String.sub s off len))) land 0xFFFF in
      Checksum.ones_complement acc (Slice.sub (Slice.of_string s) ~off ~len) = expected
      && Checksum.ones_complement_sub acc s ~off ~len = expected)

(* The 32-bit boxed form the address used to be, kept as the reference
   for the immediate one. *)
module Ref_addr = struct
  let octet v i = Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - i))) 0xFFl)
  let to_string v = Printf.sprintf "%d.%d.%d.%d" (octet v 0) (octet v 1) (octet v 2) (octet v 3)
  let mask len = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)
  let mem v ~base ~len = Int32.equal (Int32.logand v (mask len)) base
  let size len = if len = 0 then max_int else 1 lsl (32 - len)
end

let random_int32 rng =
  let x = Int64.to_int32 (Rng.int64 rng) in
  (* half the draws have the sign bit set, 128.0.0.0 and up *)
  if Rng.bool rng then Int32.logor x Int32.min_int else Int32.logand x Int32.max_int

let prop_ipaddr_ref =
  QCheck2.Test.make ~name:"Ipaddr ≡ int32 reference" ~count:2000
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let x = random_int32 rng in
      let y = if Rng.int rng 8 = 0 then x else random_int32 rng in
      let a = Ipaddr.of_int32 x and b = Ipaddr.of_int32 y in
      let o = Ref_addr.octet x in
      let sign n = compare n 0 in
      let len = Rng.int rng 33 in
      let p = Ipaddr.prefix a len in
      let base = Int32.logand x (Ref_addr.mask len) in
      (* /0 covers [max_int] indices, most past 2^32, where the sum wraps *)
      let i = Rng.int rng (Ref_addr.size len) in
      Int32.equal (Ipaddr.to_int32 a) x
      && Ipaddr.equal (Ipaddr.of_int32 (Ipaddr.to_int32 a)) a
      && Ipaddr.to_int a = Int32.to_int x land 0xFFFFFFFF
      && Ipaddr.equal (Ipaddr.of_int (Ipaddr.to_int a)) a
      && Ipaddr.equal (Ipaddr.of_octets (o 0) (o 1) (o 2) (o 3)) a
      && Ipaddr.to_string a = Ref_addr.to_string x
      && Ipaddr.equal (Ipaddr.of_string (Ref_addr.to_string x)) a
      && sign (Ipaddr.compare a b) = sign (Int32.unsigned_compare x y)
      && Ipaddr.equal a b = Int32.equal x y
      && Ipaddr.hash a = Hashtbl.hash x
      && Ipaddr.prefix_to_string p = Printf.sprintf "%s/%d" (Ref_addr.to_string base) len
      && Ipaddr.mem b p = Ref_addr.mem y ~base ~len
      && Ipaddr.mem a p
      && Ipaddr.prefix_size p = Ref_addr.size len
      && Ipaddr.equal (Ipaddr.nth p i) (Ipaddr.of_int32 (Int32.add base (Int32.of_int i))))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_packet_roundtrip; prop_checksum_detects_flip; prop_pseudo_header_arith;
      prop_decode_accepts_ref_checksum; prop_view_decoder_reference; prop_word_sum;
      prop_ipaddr_ref ]

let () =
  Alcotest.run "net"
    [
      ( "ipaddr",
        [
          Alcotest.test_case "roundtrip" `Quick test_ipaddr_roundtrip;
          Alcotest.test_case "invalid" `Quick test_ipaddr_invalid;
          Alcotest.test_case "prefix membership" `Quick test_prefix_mem;
          Alcotest.test_case "prefix nth" `Quick test_prefix_nth;
          Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
        ] );
      ( "codecs",
        [
          Alcotest.test_case "checksum rfc1071" `Quick test_checksum_known;
          Alcotest.test_case "ipv4 roundtrip" `Quick test_ipv4_roundtrip;
          Alcotest.test_case "ipv4 corrupt" `Quick test_ipv4_corrupt_checksum;
          Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
          Alcotest.test_case "tcp pseudo header" `Quick test_tcp_wrong_pseudo_header;
          Alcotest.test_case "tcp flags shared" `Quick test_tcp_flags_shared;
          Alcotest.test_case "udp roundtrip" `Quick test_udp_roundtrip;
          Alcotest.test_case "packet roundtrip" `Quick test_packet_roundtrip;
          Alcotest.test_case "ipv4 options" `Quick test_ipv4_options;
          Alcotest.test_case "tcp options" `Quick test_tcp_options;
          Alcotest.test_case "udp zero checksum" `Quick test_udp_zero_checksum;
          Alcotest.test_case "raw protocol" `Quick test_raw_protocol;
        ] );
      ( "flow",
        [
          Alcotest.test_case "reassembly" `Quick test_flow_reassembly;
          Alcotest.test_case "duplicates" `Quick test_flow_duplicate_ignored;
          Alcotest.test_case "reassembly across the wrap" `Quick test_flow_reassembly_wrap;
        ] );
      ( "ethernet",
        [
          Alcotest.test_case "mac parsing" `Quick test_ethernet_mac;
          Alcotest.test_case "frame roundtrip" `Quick test_ethernet_frame_roundtrip;
          Alcotest.test_case "short frame" `Quick test_ethernet_short_frame;
        ] );
      ( "pcap",
        [
          Alcotest.test_case "roundtrip" `Quick test_pcap_roundtrip;
          Alcotest.test_case "bad magic" `Quick test_pcap_bad_magic;
          Alcotest.test_case "file io" `Quick test_pcap_file_io;
          Alcotest.test_case "ethernet linktype" `Quick test_pcap_ethernet_linktype;
        ] );
      ("properties", properties);
    ]
