(* sanids gen-trace / gen-exploit / corpus: workload synthesis. *)

open Sanids
open Cmdliner
open Cli_common

let gen_trace_cmd =
  let out_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUT.pcap") in
  let kind =
    Arg.(value
         & opt
             (enum
                [
                  ("benign", `Benign); ("codered", `Codered);
                  ("adversarial", `Adversarial);
                ])
             `Benign
         & info [ "kind" ] ~docv:"KIND"
             ~doc:"Trace kind: benign, codered or adversarial \
                   (algorithmic-complexity bombs for the hardening drills).")
  in
  let packets =
    Arg.(value & opt int 10_000 & info [ "packets" ] ~docv:"N" ~doc:"Benign packet count.")
  in
  let instances =
    Arg.(value & opt int 3 & info [ "instances" ] ~docv:"N"
           ~doc:"Code Red II instances (codered kind).")
  in
  let adv_kind =
    let parse s =
      Option.to_result (Adversarial.kind_of_string s)
        ~none:
          (Printf.sprintf
             "bad adversarial kind %S (want \
              unicode_bomb|repetition_bomb|jmp_maze|garbage_x86|decoy_decoder|mixed)"
             s)
    in
    Arg.(value
         & opt
             (spec_conv { Spec.parse; print = Adversarial.kind_to_string })
             Adversarial.Mixed
         & info [ "adv-kind" ] ~docv:"KIND"
             ~doc:"Payload family for the adversarial kind: \
                   $(b,unicode_bomb), $(b,repetition_bomb), $(b,jmp_maze), \
                   $(b,garbage_x86), $(b,decoy_decoder) (a matcher false \
                   positive only dynamic confirmation can refute) or \
                   $(b,mixed).")
  in
  let payload_size =
    Arg.(value & opt int 8192 & info [ "payload-size" ] ~docv:"BYTES"
           ~doc:"Approximate payload size for the adversarial kind.")
  in
  let run out kind packets instances adv_kind payload_size seed =
    let rng = Rng.create (Int64.of_int seed) in
    let clients = Ipaddr.prefix_of_string "10.1.0.0/16" in
    let servers = Ipaddr.prefix_of_string "10.2.0.0/16" in
    let unused = Ipaddr.prefix_of_string "10.2.200.0/21" in
    let pkts =
      match kind with
      | `Benign -> Benign_gen.packets rng ~n:packets ~t0:0.0 ~clients ~servers
      | `Codered ->
          let pkts, truth =
            Worm_gen.code_red_trace rng ~benign:packets ~instances
              ~scans_per_instance:6 ~clients ~servers ~unused ~duration:300.0
          in
          Printf.printf
            "ground truth: %d packets, %d CRII instances, %d scans (unused space: %s)\n"
            truth.Worm_gen.total_packets truth.Worm_gen.crii_instances
            truth.Worm_gen.scan_packets
            (Ipaddr.prefix_to_string unused);
          pkts
      | `Adversarial ->
          Adversarial.packets ~kind:adv_kind ~size:payload_size rng ~n:packets
            ~t0:0.0 ~clients ~servers
    in
    write_file out (Pcap.encode (Pcap.of_packets pkts));
    Printf.printf "wrote %s (%d packets)\n" out (List.length pkts)
  in
  Cmd.v
    (Cmd.info "gen-trace"
       ~doc:"Synthesize a seeded pcap trace (benign, worm outbreak or \
             adversarial load).")
    Term.(const run $ out_arg $ kind $ packets $ instances $ adv_kind
          $ payload_size $ seed_arg)

let gen_exploit_cmd =
  let sc_name =
    Arg.(value & opt string "classic" & info [ "shellcode" ] ~docv:"NAME"
           ~doc:"Shellcode from the corpus (see $(b,sanids corpus)).")
  in
  let polymorphic =
    Arg.(value & flag & info [ "polymorphic" ]
           ~doc:"Wrap the shellcode with the ADMmutate-style engine.")
  in
  let clet = Arg.(value & flag & info [ "clet" ] ~doc:"Use the Clet-style engine.") in
  let staged =
    Arg.(value & flag & info [ "staged" ]
           ~doc:"Double-encode: the decoder decodes a second decoder.")
  in
  let http =
    Arg.(value & flag & info [ "http" ] ~doc:"Embed in an HTTP overflow request.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: hexdump to stdout).")
  in
  let run sc_name polymorphic clet staged http out seed =
    match Shellcodes.find sc_name with
    | exception Not_found ->
        Printf.eprintf "unknown shellcode %S; see `sanids corpus`\n" sc_name;
        exit 2
    | entry ->
        let rng = Rng.create (Int64.of_int seed) in
        let code =
          if staged then
            (Admmutate.generate_staged ~stages:2 rng ~payload:entry.Shellcodes.code)
              .Admmutate.code
          else if clet then (Clet.generate rng ~payload:entry.Shellcodes.code).Clet.code
          else if polymorphic then
            (Admmutate.generate rng ~payload:entry.Shellcodes.code).Admmutate.code
          else entry.Shellcodes.code
        in
        let data =
          if http then Exploit_gen.http_exploit rng ~shellcode:code else code
        in
        (match out with
        | Some path ->
            write_file path data;
            Printf.printf "wrote %s (%d bytes)\n" path (String.length data)
        | None -> print_endline (Hexdump.to_string data))
  in
  Cmd.v
    (Cmd.info "gen-exploit" ~doc:"Emit a shellcode or exploit payload from the corpus.")
    Term.(const run $ sc_name $ polymorphic $ clet $ staged $ http $ out $ seed_arg)

let corpus_cmd =
  let run () =
    List.iter
      (fun (e : Shellcodes.entry) ->
        Printf.printf "%-12s %4d B  %s%s\n" e.Shellcodes.name
          (String.length e.Shellcodes.code)
          e.Shellcodes.description
          (if e.Shellcodes.binds_port then "  [binds port]" else ""))
      Shellcodes.all
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"List the shell-spawning shellcode corpus.")
    Term.(const run $ const ())
