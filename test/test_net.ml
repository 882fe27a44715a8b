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

let test_ipv4_roundtrip () =
  let t =
    { Ipv4.src = a; dst = b; proto = 6; ttl = 63; ident = 77;
      payload = Slice.of_string "hello" }
  in
  match Ipv4.decode (Slice.of_string (Ipv4.encode t)) with
  | Ok t' ->
      Alcotest.(check string) "payload" "hello" (Slice.to_string t'.Ipv4.payload);
      Alcotest.(check bool) "src" true (Ipaddr.equal t'.Ipv4.src a);
      Alcotest.(check int) "ttl" 63 t'.Ipv4.ttl;
      Alcotest.(check int) "ident" 77 t'.Ipv4.ident
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_ipv4_corrupt_checksum () =
  let raw =
    Bytes.of_string
      (Ipv4.encode
         { Ipv4.src = a; dst = b; proto = 6; ttl = 1; ident = 0; payload = Slice.empty })
  in
  Bytes.set raw 8 '\xFF';
  (* ttl tampered *)
  match Ipv4.decode (Slice.of_string (Bytes.to_string raw)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered header must not decode"

let test_tcp_roundtrip () =
  let seg =
    {
      Tcp.src_port = 3127;
      dst_port = 80;
      seq = 0xDEAD0000l;
      ack_no = 5l;
      flags = Tcp.flags_pshack;
      window = 1024;
      payload = Slice.of_string "GET / HTTP/1.0\r\n\r\n";
    }
  in
  match Tcp.decode ~src:a ~dst:b (Slice.of_string (Tcp.encode ~src:a ~dst:b seg)) with
  | Ok seg' ->
      Alcotest.(check int) "sport" 3127 seg'.Tcp.src_port;
      Alcotest.(check string) "payload"
        (Slice.to_string seg.Tcp.payload)
        (Slice.to_string seg'.Tcp.payload);
      Alcotest.(check bool) "flags" true (seg'.Tcp.flags = Tcp.flags_pshack)
  | Error e -> Alcotest.failf "tcp decode: %s" e

let test_tcp_wrong_pseudo_header () =
  let seg =
    {
      Tcp.src_port = 1; dst_port = 2; seq = 0l; ack_no = 0l;
      flags = Tcp.flags_ack; window = 1; payload = Slice.of_string "x";
    }
  in
  let bytes = Slice.of_string (Tcp.encode ~src:a ~dst:b seg) in
  (* decoding against a different address must fail the checksum (note:
     merely swapping src and dst would NOT change a one's-complement sum,
     which is commutative over the pseudo-header words) *)
  match Tcp.decode ~src:(ip "10.9.9.9") ~dst:b bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checksum must bind addresses"

let test_tcp_flags_shared () =
  for byte = 0 to 255 do
    let f = Tcp.flags_of_byte byte in
    let bit n = byte land n <> 0 in
    if
      f.Tcp.fin <> bit 1 || f.Tcp.syn <> bit 2 || f.Tcp.rst <> bit 4
      || f.Tcp.psh <> bit 8 || f.Tcp.ack <> bit 16 || f.Tcp.urg <> bit 32
    then Alcotest.failf "flags of 0x%02x" byte;
    if not (Tcp.flags_of_byte byte == f) then Alcotest.failf "flags of 0x%02x not shared" byte
  done;
  Alcotest.(check bool) "pshack" true (Tcp.flags_of_byte 0x18 = Tcp.flags_pshack)

let test_udp_roundtrip () =
  let d = { Udp.src_port = 5353; dst_port = 53; payload = Slice.of_string "query" } in
  match Udp.decode ~src:a ~dst:b (Slice.of_string (Udp.encode ~src:a ~dst:b d)) with
  | Ok d' -> Alcotest.(check string) "payload" "query" (Slice.to_string d'.Udp.payload)
  | Error e -> Alcotest.failf "udp decode: %s" e

let test_packet_roundtrip () =
  let p =
    Packet.build_tcp ~ts:1.5 ~src:a ~dst:b ~src_port:1234 ~dst_port:80 "payload!"
  in
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
      let raw =
        Ipv4.encode
          { Ipv4.src = a; dst = b; proto = 200; ttl = 9; ident = 1;
            payload = Slice.of_string payload }
      in
      let pos = flip mod min 20 (String.length raw) in
      let bytes = Bytes.of_string raw in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x5A));
      match Ipv4.decode (Slice.of_string (Bytes.to_string bytes)) with
      | Error _ -> true
      | Ok t ->
          (* flips that survive decoding must not masquerade as intact:
             only flips that keep the checksum valid would, which a single
             bit flip cannot *)
          not (Slice.equal_string t.Ipv4.payload payload) || false)

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
      let proto = if Rng.bool rng then Ipv4.proto_tcp else Ipv4.proto_udp in
      let len = Rng.int rng 65536 in
      let ph = ref_pseudo_bytes ~src ~dst ~proto ~len in
      let term = Checksum.pseudo_header ~src ~dst ~proto ~len in
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
      Tcp.encode ~src ~dst
        { Tcp.src_port = Rng.int rng 65536; dst_port = Rng.int rng 65536;
          seq = Int64.to_int32 (Rng.int64 rng); ack_no = 0l; flags = Tcp.flags_ack;
          window = Rng.int rng 65536; payload }
    else
      Udp.encode ~src ~dst
        { Udp.src_port = Rng.int rng 65536; dst_port = Rng.int rng 65536; payload }
  in
  let b = Bytes.of_string raw in
  let csum_at = if tcp then 16 else 6 in
  if Rng.bool rng then begin
    let pos = Rng.int rng (Bytes.length b) in
    if not (if tcp then pos = 12 else pos = 4 || pos = 5) then
      Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 + Rng.int rng 255))
  end;
  let proto = if tcp then Ipv4.proto_tcp else Ipv4.proto_udp in
  let dec_src = if Rng.int rng 4 = 0 then random_addr rng else src in
  if Rng.bool rng then begin
    Bytes.set_uint16_be b csum_at 0;
    let ph = ref_pseudo_bytes ~src:dec_src ~dst ~proto ~len:(Bytes.length b) in
    Bytes.set_uint16_be b csum_at (ref_checksum (ph ^ Bytes.to_string b))
  end;
  (tcp, dec_src, dst, Bytes.to_string b)

let prop_decode_accepts_ref_checksum =
  QCheck2.Test.make
    ~name:"Tcp/Udp.decode accept exactly the segments whose reference checksum is zero"
    ~count:1000 ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let tcp, src, dst, seg = checksum_case seed in
      let proto = if tcp then Ipv4.proto_tcp else Ipv4.proto_udp in
      let ok = ref_checksum (ref_pseudo_bytes ~src ~dst ~proto ~len:(String.length seg) ^ seg) = 0 in
      if tcp then Result.is_ok (Tcp.decode ~src ~dst (Slice.of_string seg)) = ok
      else
        (* a zero UDP checksum field means "not computed" *)
        Result.is_ok (Udp.decode ~src ~dst (Slice.of_string seg))
        = (ok || String.get_uint16_be seg 6 = 0))

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
      && Checksum.ones_complement_sub acc (Slice.of_string s) ~off ~len = expected)

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
      prop_decode_accepts_ref_checksum; prop_word_sum; prop_ipaddr_ref ]

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
        ] );
      ( "flow",
        [
          Alcotest.test_case "reassembly" `Quick test_flow_reassembly;
          Alcotest.test_case "duplicates" `Quick test_flow_duplicate_ignored;
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
