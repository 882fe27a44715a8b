(* Benchmark harness: regenerates every table and measured result of the
   paper's evaluation (§5).  Run with `dune exec bench/main.exe`.

     --full          paper-scale workloads (Table 3 traces >200k packets,
                     month-scale false-positive corpus)
     --smoke         tiny workloads; every section runs in seconds, which
                     is what the `@bench-smoke` dune alias uses to catch
                     bench bit-rot (`dune build @bench-smoke`)
     --section NAME  run one section: table1 table2 table3 fp efficiency
                     baseline micro
     --json OUT      machine-readable mode: run the trajectory rows
                     (stream shedding, confirm overhead, cluster latency)
                     five rounds each and write a sanids-bench/2 JSON
                     document to OUT instead of the text sections;
                     combine with --smoke/--full for size
*)

let sections =
  [ "table1"; "table2"; "table3"; "fp"; "efficiency"; "baseline"; "ablation"; "containment"; "parallel"; "adversarial"; "micro" ]

let arg_value flag =
  let rec find i =
    if i >= Array.length Sys.argv - 1 then None
    else if Sys.argv.(i) = flag then Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let () =
  let full = Array.exists (( = ) "--full") Sys.argv in
  let smoke = (not full) && Array.exists (( = ) "--smoke") Sys.argv in
  (match arg_value "--json" with
  | Some out ->
      let mode = if full then `Full else if smoke then `Smoke else `Quick in
      Bench_json.run ~mode ~out ();
      exit 0
  | None -> ());
  let selected = arg_value "--section" in
  let want name = match selected with None -> true | Some s -> s = name in
  (match selected with
  | Some s when not (List.mem s sections) ->
      Printf.eprintf "unknown section %S; available: %s\n" s (String.concat " " sections);
      exit 2
  | Some _ | None -> ());
  Printf.printf "sanids benchmark harness — %s mode\n"
    (if full then "full (paper-scale)"
     else if smoke then "smoke (bit-rot check)"
     else "quick");
  Printf.printf "(shapes, not absolute 2006 numbers, are the reproduction target)\n";
  let instances = if smoke then 4 else 100 in
  let packets_per_trace = if full then 200_000 else if smoke then 400 else 20_000 in
  let fp_packets = if full then 1_000_000 else if smoke then 400 else 50_000 in
  if want "table1" then Table1.run ();
  if want "table2" then Table2.run ~instances ();
  if want "table3" then Table3.run ~packets_per_trace ();
  if want "fp" then False_pos.run ~packets:fp_packets ();
  if want "efficiency" then
    if smoke then Efficiency.run ~outbreak:40 ~sled:96 ()
    else Efficiency.run ();
  if want "baseline" then Baseline_contrast.run ~instances ();
  if want "ablation" then Ablation.run ();
  if want "containment" then Containment_bench.run ();
  if want "parallel" then Parallel_bench.run ~packets:fp_packets ();
  if want "adversarial" then
    if smoke then Adversarial_bench.run ~packets:4 ~size:1024 ()
    else if full then Adversarial_bench.run ~packets:100 ~size:8192 ()
    else Adversarial_bench.run ();
  if want "micro" then Micro.run ~quota:(if smoke then 0.02 else 0.25) ();
  print_newline ()
