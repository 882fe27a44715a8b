(* Worm outbreak forensics: synthesize a Code Red II outbreak trace,
   write it to a pcap file, read it back and run the NIDS over it —
   the full capture-to-alert loop of the paper's Table 3.

   Run with: dune exec examples/worm_outbreak.exe *)

open Sanids

let clients = Ipaddr.prefix_of_string "10.10.0.0/16"
let servers = Ipaddr.prefix_of_string "10.20.0.0/16"
let unused = Ipaddr.prefix_of_string "10.20.128.0/17"

let () =
  let rng = Rng.create 20010719L (* Code Red's big day *) in
  let packets, truth =
    Worm_gen.code_red_trace rng ~benign:3000 ~instances:4 ~scans_per_instance:6
      ~clients ~servers ~unused ~duration:300.0
  in
  Printf.printf "synthesized a 5-minute trace: %d packets, %d CRII instances, %d scans\n"
    truth.Worm_gen.total_packets truth.Worm_gen.crii_instances
    truth.Worm_gen.scan_packets;

  (* round-trip through a capture file, as a real deployment would *)
  let path = Filename.temp_file "outbreak" ".pcap" in
  Result.iter_error failwith (File.write path (Pcap.encode (Pcap.of_packets packets)));
  Printf.printf "wrote %s (%d bytes)\n" path (Unix.stat path).Unix.st_size;
  let capture =
    match Result.bind (File.read path) Pcap.decode with
    | Ok f -> f
    | Error m -> failwith m
  in

  let config = Config.default |> Config.with_unused [ unused ] in
  let nids = Pipeline.create config in
  let alerts = Pipeline.process_packets nids (Ingest.ok_packets capture) in

  let crii = List.filter (fun a -> a.Alert.template = "code-red-ii") alerts in
  Printf.printf "\nNIDS results:\n";
  List.iter (fun a -> print_endline ("  " ^ Alert.to_line a)) crii;
  Printf.printf "\ndetected %d/%d instances — %s\n" (List.length crii)
    truth.Worm_gen.crii_instances
    (if List.length crii = truth.Worm_gen.crii_instances then
       "every instance classified and matched"
     else "MISSED SOME");
  Sys.remove path
