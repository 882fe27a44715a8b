(* The sanids command-line tool.

     sanids scan capture.pcap --honeypot 10.0.0.9 --unused 10.9.0.0/16
     sanids serve spool/ --socket /run/sanids.sock --config-file sanids.conf
     sanids ctl metrics --socket /run/sanids.sock
     sanids gen-trace out.pcap --kind codered --packets 20000 --seed 7
     sanids gen-exploit --shellcode classic --polymorphic -o exploit.bin
     sanids disasm exploit.bin
     sanids match exploit.bin
     sanids templates
     sanids corpus

   Each subcommand lives in its own bin/cmd_*.ml module over the
   shared Cli_common combinators; this file is only the group. *)

open Cmdliner

let () =
  let info =
    Cmd.info "sanids" ~version:"1.0.0"
      ~doc:"Network intrusion detection with semantics-aware capability."
  in
  let group =
    Cmd.group info
      [
        Cmd_scan.scan_cmd; Cmd_scan.sig_scan_cmd;
        Cmd_serve.serve_cmd; Cmd_serve.ctl_cmd;
        Cmd_cluster.sensor_cmd; Cmd_cluster.aggregate_cmd;
        Cmd_gen.gen_trace_cmd; Cmd_gen.gen_exploit_cmd; Cmd_gen.corpus_cmd;
        Cmd_tools.disasm_cmd; Cmd_tools.match_cmd; Cmd_tools.emulate_cmd;
        Cmd_tools.emu_test_cmd; Cmd_tools.templates_cmd;
        Cmd_lint.lint_cmd;
      ]
  in
  exit (Cli_common.eval group)
