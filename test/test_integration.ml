(* The whole system, one scenario: a ten-minute trace carrying a benign
   floor plus five distinct attacks, processed by the fully configured
   NIDS (classification + stream reassembly), then re-checked through a
   pcap round trip and through the multicore path.  The expected alert
   set is exact: every attack found, nothing else. *)

open Sanids_net
open Sanids_nids
open Sanids_exploits

let ip = Ipaddr.of_string
let clients = Ipaddr.prefix_of_string "10.10.0.0/16"
let servers = Ipaddr.prefix_of_string "10.20.0.0/16"
let unused = Ipaddr.prefix_of_string "10.20.192.0/18"
let honeypot = ip "10.20.0.250"

let config =
  Config.default
  |> Config.with_honeypots [ honeypot ]
  |> Config.with_unused [ unused ]
  |> Config.with_reassembly true

(* attack sources *)
let crii_src = ip "198.18.1.1"
let slammer_src = ip "198.18.2.2"
let poly_src = ip "203.0.113.3"
let frag_src = ip "198.18.4.4"
let reverse_src = ip "203.0.113.5"

let scans rng src t0 =
  List.init 6 (fun s ->
      Sanids_workload.Worm_gen.scan_packet rng ~ts:(t0 +. (0.2 *. float_of_int s))
        ~src ~unused)

let scenario () =
  let rng = Rng.create 0x16C7_0001L in
  let benign =
    Sanids_workload.Benign_gen.packets rng ~n:3000 ~t0:0.0 ~clients ~servers
  in
  let victim k = Ipaddr.nth servers (100 + k) in
  (* 1. Code Red II: scans then the exploit *)
  let crii = scans rng crii_src 30.0 @ [ Code_red.packet ~ts:32.0 ~src:crii_src ~dst:(victim 1) () ] in
  (* 2. Slammer: the sprays are the worm *)
  let slammer =
    List.init 6 (fun s ->
        Slammer.packet ~ts:(60.0 +. (0.05 *. float_of_int s)) ~src:slammer_src
          ~dst:(Ipaddr.nth unused (40 + s)) ())
    @ [ Slammer.packet ~ts:61.0 ~src:slammer_src ~dst:(victim 2) () ]
  in
  (* 3. honeypot prober delivering a polymorphic exploit *)
  let g = Sanids_polymorph.Admmutate.generate ~family:Sanids_polymorph.Admmutate.Xor_loop rng ~payload:(Shellcodes.find "classic").Shellcodes.code in
  let poly =
    [
      Packet.build_tcp ~ts:120.0 ~src:poly_src ~dst:honeypot ~src_port:999
        ~dst_port:80 "GET / HTTP/1.0\r\n\r\n";
      Exploit_gen.packet rng ~ts:121.0 ~src:poly_src ~dst:(victim 3)
        ~shellcode:g.Sanids_polymorph.Admmutate.code;
    ]
  in
  (* 4. a scanner delivering its exploit split across TCP segments *)
  let frag_payload =
    Exploit_gen.http_exploit rng ~shellcode:(Shellcodes.find "stack-store").Shellcodes.code
  in
  let fragments =
    let n = String.length frag_payload in
    List.init 12 (fun i ->
        let lo = i * n / 12 and hi = (i + 1) * n / 12 in
        Packet.build_tcp
          ~ts:(180.0 +. (0.1 *. float_of_int i))
          ~src:frag_src ~dst:(victim 4) ~src_port:777 ~dst_port:80
          ~seq:(Int32.add 5000l (Int32.of_int lo))
          (String.sub frag_payload lo (hi - lo)))
  in
  let frag = scans rng frag_src 175.0 @ fragments in
  (* 5. honeypot prober delivering a reverse shell *)
  let reverse =
    [
      Packet.build_tcp ~ts:240.0 ~src:reverse_src ~dst:honeypot ~src_port:555
        ~dst_port:22 "SSH-2.0-probe\r\n";
      Exploit_gen.packet rng ~ts:241.0 ~src:reverse_src ~dst:(victim 5)
        ~shellcode:(Shellcodes.find "reverse-4444").Shellcodes.code;
    ]
  in
  List.sort
    (fun a b -> compare a.Packet.ts b.Packet.ts)
    (benign @ crii @ slammer @ poly @ frag @ reverse)

(* note: the polymorphic source raises ONLY decrypt-loop — its
   shell-spawning payload is ciphertext until the decoder runs, which is
   precisely why the decryption-loop template exists *)
let expected =
  [
    ("code-red-ii", crii_src);
    ("connect-back-shell", reverse_src);
    ("decrypt-loop", poly_src);
    ("shell-spawn", frag_src);
    ("shell-spawn", reverse_src);
    ("slammer", slammer_src);
  ]

let observed alerts =
  List.sort_uniq compare
    (List.map (fun a -> (a.Alert.template, a.Alert.src)) alerts)

let check_alerts label alerts =
  let obs = observed alerts in
  let render l =
    String.concat ", "
      (List.map (fun (t, s) -> t ^ "@" ^ Ipaddr.to_string s) l)
  in
  Alcotest.(check string) label (render (List.sort compare expected)) (render obs)

let test_sequential () =
  let pkts = scenario () in
  let nids = Pipeline.create config in
  check_alerts "sequential pipeline" (Pipeline.process_packets nids pkts);
  let s = Pipeline.stats nids in
  Alcotest.(check int) "every packet seen" (List.length pkts) s.Stats.packets;
  Alcotest.(check bool) "analysis stayed narrow" true
    (s.Stats.classified_suspicious < List.length pkts / 4)

let test_via_pcap () =
  let pkts = scenario () in
  let path = Filename.temp_file "sanids_integration" ".pcap" in
  Result.get_ok (File.write path (Sanids_pcap.Pcap.encode (Sanids_pcap.Pcap.of_packets pkts)));
  let capture =
    match Sanids_pcap.Pcap.decode (In_channel.with_open_bin path In_channel.input_all) with
    | Ok f -> f
    | Error m -> Alcotest.failf "decode: %s" m
  in
  Sys.remove path;
  let nids = Pipeline.create config in
  check_alerts "after pcap round trip"
    (Pipeline.process_packets nids (Sanids_ingest.Ingest.ok_packets capture))

let test_via_parallel () =
  let pkts = scenario () in
  let alerts, stats = Parallel.process ~domains:3 config pkts in
  check_alerts "parallel path" alerts;
  Alcotest.(check int) "packet accounting" (List.length pkts) stats.Stats.packets

let () =
  Alcotest.run "integration"
    [
      ( "day-in-the-life",
        [
          Alcotest.test_case "sequential" `Quick test_sequential;
          Alcotest.test_case "pcap round trip" `Quick test_via_pcap;
          Alcotest.test_case "parallel" `Quick test_via_parallel;
        ] );
    ]
