(* Tests for the Snort-style rule language of the signature baseline. *)

open Sanids_net
open Sanids_baseline

let ip = Ipaddr.of_string

let parse_ok line =
  match Rule.parse line with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse %S failed: %s" line e

let parse_err line =
  match Rule.parse line with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "parse %S should have failed" line

let test_parse_basic () =
  let r = parse_ok {|alert tcp any any -> any 80 (msg:"web shellcode"; content:"/bin/sh";)|} in
  Alcotest.(check string) "msg" "web shellcode" r.Rule.msg;
  Alcotest.(check (option int)) "dst port" (Some 80) r.Rule.dst_port;
  Alcotest.(check (option int)) "src port any" None r.Rule.src_port;
  Alcotest.(check int) "one content" 1 (List.length r.Rule.contents);
  Alcotest.(check bool) "proto tcp" true (r.Rule.proto = Rule.P_tcp)

let test_parse_hex_content () =
  let r = parse_ok {|alert tcp any any -> any any (msg:"x"; content:"|90 90|ABC|cd 80|";)|} in
  match r.Rule.contents with
  | [ c ] -> Alcotest.(check string) "mixed decode" "\x90\x90ABC\xcd\x80" c.Rule.pattern
  | _ -> Alcotest.fail "expected one content"

let test_parse_modifiers () =
  let r =
    parse_ok
      {|alert udp any any -> any 1434 (msg:"m"; content:"|04|"; offset:0; depth:1; content:"xyz"; nocase;)|}
  in
  match r.Rule.contents with
  | [ a; b ] ->
      Alcotest.(check int) "offset" 0 a.Rule.offset;
      Alcotest.(check (option int)) "depth" (Some 1) a.Rule.depth;
      Alcotest.(check bool) "nocase attaches to last content" true b.Rule.nocase;
      Alcotest.(check bool) "first content not nocase" false a.Rule.nocase
  | _ -> Alcotest.fail "expected two contents"

let test_parse_cidr_endpoints () =
  let r =
    parse_ok {|alert tcp 10.0.0.0/8 any -> 192.168.1.1 22 (msg:"ssh"; content:"SSH";)|}
  in
  (match r.Rule.src with
  | Some p -> Alcotest.(check bool) "src prefix" true (Ipaddr.mem (ip "10.9.9.9") p)
  | None -> Alcotest.fail "expected src prefix");
  match r.Rule.dst with
  | Some p ->
      Alcotest.(check bool) "bare address is /32" true (Ipaddr.mem (ip "192.168.1.1") p);
      Alcotest.(check bool) "/32 excludes neighbours" false (Ipaddr.mem (ip "192.168.1.2") p)
  | None -> Alcotest.fail "expected dst prefix"

let test_parse_rejects () =
  parse_err "";
  parse_err "# a comment";
  parse_err "drop tcp any any -> any any (content:\"x\";)";
  parse_err "alert tcp any any -> any any ()";
  parse_err "alert tcp any any -> any any (msg:\"no content\";)";
  parse_err "alert tcp any any <- any any (content:\"x\";)";
  parse_err "alert tcp any any -> any 99999 (content:\"x\";)";
  parse_err {|alert tcp any any -> any any (content:"|zz|";)|};
  parse_err {|alert tcp any any -> any any (nocase; content:"x";)|}

let test_parse_many () =
  let rules, errors = Rule.parse_many Rule.default_ruleset in
  Alcotest.(check int) "no errors in shipped ruleset" 0 (List.length errors);
  Alcotest.(check int) "ten rules" 10 (List.length rules);
  Alcotest.(check bool) "Rule.default is the parsed ruleset" true (Rule.default = rules)

(* ------------------------------------------------------------------ *)
(* matching *)

let test_match_shellcode_packet () =
  let sc = (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code in
  let p =
    Packet.build_tcp ~ts:0.0 ~src:(ip "1.2.3.4") ~dst:(ip "10.0.0.1") ~src_port:1111
      ~dst_port:80 sc
  in
  Alcotest.(check bool) "push signature fires" true
    (List.mem "shellcode push /bin//sh" (Rule.match_packet Rule.default p))

let test_match_port_filter () =
  let req = Sanids_exploits.Code_red.request () in
  let to_port port =
    Packet.build_tcp ~ts:0.0 ~src:(ip "1.2.3.4") ~dst:(ip "10.0.0.1") ~src_port:1111
      ~dst_port:port req
  in
  Alcotest.(check bool) "fires on port 80" true
    (List.mem "code red ida overflow" (Rule.match_packet Rule.default (to_port 80)));
  Alcotest.(check bool) "quiet on port 8080" false
    (List.mem "code red ida overflow" (Rule.match_packet Rule.default (to_port 8080)))

let test_match_proto_filter () =
  let slammer = Sanids_exploits.Slammer.datagram () in
  let udp =
    Packet.build_udp ~ts:0.0 ~src:(ip "1.2.3.4") ~dst:(ip "10.0.0.1") ~src_port:9
      ~dst_port:1434 slammer
  in
  let tcp =
    Packet.build_tcp ~ts:0.0 ~src:(ip "1.2.3.4") ~dst:(ip "10.0.0.1") ~src_port:9
      ~dst_port:1434 slammer
  in
  Alcotest.(check bool) "udp rule fires" true
    (List.mem "sql slammer" (Rule.match_packet Rule.default udp));
  Alcotest.(check bool) "tcp delivery ignored by udp rule" false
    (List.mem "sql slammer" (Rule.match_packet Rule.default tcp))

(* The protocol filter on decoded packets: a TCP segment, a UDP
   datagram and a raw (protocol 200) datagram, each carrying the
   content, against a tcp, a udp and an ip rule. *)
let test_match_proto_decoded () =
  let decode raw =
    match
      Sanids_ingest.Ingest.decode_record ~linktype:Sanids_pcap.Pcap.linktype_raw
        { Sanids_pcap.Pcap.ts = 0.0; orig_len = String.length raw; data = Slice.of_string raw }
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "decode: %s" (Sanids_ingest.Ingest.error_to_string e)
  in
  let src = ip "1.2.3.4" and dst = ip "10.0.0.1" in
  let tcp = decode (Packet.to_bytes (Packet.build_tcp ~ts:0.0 ~src ~dst ~src_port:5 ~dst_port:6 "marker")) in
  let udp = decode (Packet.to_bytes (Packet.build_udp ~ts:0.0 ~src ~dst ~src_port:5 ~dst_port:6 "marker")) in
  let raw =
    (* the UDP datagram relabelled protocol 200, its header checksum
       recomputed: a raw datagram whose IP payload holds the content *)
    let b = Bytes.of_string (Packet.to_bytes (Packet.build_udp ~ts:0.0 ~src ~dst ~src_port:5 ~dst_port:6 "marker")) in
    Bytes.set_uint8 b 9 200;
    Bytes.set_uint16_be b 10 0;
    let sum = ref 0 in
    for i = 0 to 9 do sum := !sum + Bytes.get_uint16_be b (2 * i) done;
    while !sum > 0xFFFF do sum := (!sum land 0xFFFF) + (!sum lsr 16) done;
    Bytes.set_uint16_be b 10 (lnot !sum land 0xFFFF);
    decode (Bytes.to_string b)
  in
  let fires proto p =
    Rule.match_packet
      [ parse_ok (Printf.sprintf {|alert %s any any -> any any (msg:"m"; content:"marker";)|} proto) ]
      p
    <> []
  in
  List.iter
    (fun (proto, want) ->
      List.iter2
        (fun (name, p) w ->
          Alcotest.(check bool) (Printf.sprintf "%s rule on %s" proto name) w (fires proto p))
        [ ("tcp", tcp); ("udp", udp); ("raw", raw) ]
        want)
    [ ("tcp", [ true; false; false ]); ("udp", [ false; true; false ]); ("ip", [ true; true; true ]) ]

let test_match_depth_window () =
  let rules, _ =
    Rule.parse_many
      {|alert ip any any -> any any (msg:"lead"; content:"|04|"; offset:0; depth:1;)|}
  in
  Alcotest.(check bool) "leading byte matches" true
    (Rule.match_payload rules "\x04rest" <> []);
  Alcotest.(check bool) "byte later in stream does not" false
    (Rule.match_payload rules "xx\x04rest" <> [])

let test_match_nocase () =
  let rules, _ =
    Rule.parse_many {|alert ip any any -> any any (msg:"ci"; content:"AtTaCk"; nocase;)|}
  in
  Alcotest.(check bool) "case-insensitive" true (Rule.match_payload rules "an attack!" <> []);
  Alcotest.(check bool) "absent" false (Rule.match_payload rules "benign" <> [])

let test_match_requires_all_contents () =
  let rules, _ =
    Rule.parse_many
      {|alert ip any any -> any any (msg:"and"; content:"one"; content:"two";)|}
  in
  Alcotest.(check bool) "both present" true (Rule.match_payload rules "one and two" <> []);
  Alcotest.(check bool) "one missing" false (Rule.match_payload rules "only one" <> [])

let () =
  Alcotest.run "rules"
    [
      ( "parse",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "hex content" `Quick test_parse_hex_content;
          Alcotest.test_case "modifiers" `Quick test_parse_modifiers;
          Alcotest.test_case "cidr endpoints" `Quick test_parse_cidr_endpoints;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "shipped ruleset" `Quick test_parse_many;
        ] );
      ( "match",
        [
          Alcotest.test_case "shellcode packet" `Quick test_match_shellcode_packet;
          Alcotest.test_case "port filter" `Quick test_match_port_filter;
          Alcotest.test_case "proto filter" `Quick test_match_proto_filter;
          Alcotest.test_case "proto filter on decoded packets" `Quick test_match_proto_decoded;
          Alcotest.test_case "depth window" `Quick test_match_depth_window;
          Alcotest.test_case "nocase" `Quick test_match_nocase;
          Alcotest.test_case "all contents required" `Quick test_match_requires_all_contents;
        ] );
    ]
