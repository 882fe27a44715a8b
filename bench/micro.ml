(* Bechamel micro-benchmarks: one Test.make per table/experiment, timing
   the kernel that dominates that experiment, plus the pipeline stages. *)

open Bechamel
open Toolkit
open Sanids_semantic
open Sanids_exploits

let mk name f = Test.make ~name (Staged.stage f)

let tests () =
  let rng = Rng.create 0x7AB1E0BEL in
  let classic = (Shellcodes.find "classic").Shellcodes.code in
  let exploit_payload = Exploit_gen.http_exploit rng ~shellcode:classic in
  let poly =
    (Sanids_polymorph.Admmutate.generate rng ~payload:classic)
      .Sanids_polymorph.Admmutate.code
  in
  let crii = Code_red.request () in
  let benign = Sanids_workload.Benign_gen.payload rng in
  let crii_s = Slice.of_string crii in
  let benign_s = Slice.of_string benign in
  let templates = Template_lib.default_set in
  (* the cold-path scan kernel: a benign binary upload's first raw frame
     (every template survives the prefilter, nothing matches) and a decoy
     decoder (matched, so the search runs to a hit) *)
  let benign_upload =
    let binary = { Sanids_workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
    Slice.of_string (Sanids_workload.Benign_gen.payload ~mix:binary rng)
  in
  let benign_frame =
    match Sanids_extract.Extractor.extract benign_upload with
    | f :: _ -> f.Sanids_extract.Extractor.data
    | [] -> failwith "micro: benign binary payload produced no frame"
  in
  let benign_code = Slice.to_string benign_frame in
  let decoy =
    Slice.of_string
      (Sanids_workload.Adversarial.payload ~kind:Sanids_workload.Adversarial.Decoy_decoder
         ~size:2048 rng)
  in
  let nids =
    Sanids_nids.Pipeline.create
      (Sanids_nids.Config.default |> Sanids_nids.Config.with_classification false)
  in
  (* ingest as the outbreak workload sees it: 2,000 benign packets on
     Table 3's address plan, framed as Ethernet records; each run takes
     the next record in turn, so a row reads per record *)
  let records, packets =
    let p = Sanids_net.Ipaddr.prefix_of_string in
    let pkts =
      Sanids_workload.Benign_gen.packets (Rng.create 0x0B0B0B0BL) ~n:2000 ~t0:0.0
        ~clients:(p "172.16.0.0/16") ~servers:(p "172.17.0.0/16")
    in
    (Array.of_list (Sanids_pcap.Pcap.of_packets_ethernet pkts), Array.of_list pkts)
  in
  let classifier =
    Sanids_classify.Classifier.create
      ~unused:[ Sanids_net.Ipaddr.prefix_of_string "172.17.200.0/21" ]
      ()
  in
  let cycle a =
    let i = ref 0 in
    fun () ->
      let x = a.(!i) in
      i := (!i + 1) mod Array.length a;
      x
  in
  let next_record = cycle records and next_packet = cycle packets in
  Test.make_grouped ~name:"sanids"
    [
      (* table 1: exploit payload through the full analysis stages *)
      mk "table1/analyze-exploit" (fun () ->
          Sanids_nids.Pipeline.analyze_payload nids exploit_payload);
      (* table 2: template scan over one polymorphic instance *)
      mk "table2/scan-admmutate" (fun () -> Matcher.scan ~templates poly);
      (* table 3: the code-red request end to end *)
      mk "table3/analyze-codered" (fun () ->
          Sanids_nids.Pipeline.analyze_payload nids crii);
      (* §5.4: the benign fast path (suspicion gate rejects) *)
      mk "fp/benign-fast-path" (fun () ->
          Sanids_nids.Pipeline.analyze_payload nids benign);
      (* stage kernels *)
      mk "stage/disassemble-4KB" (fun () -> Sanids_x86.Decode.all poly);
      mk "stage/extract-codered" (fun () -> Sanids_extract.Extractor.extract crii_s);
      mk "stage/suspicious-gate" (fun () -> Sanids_extract.Extractor.suspicious benign_s);
      (* the cold path ahead of the matcher: the gate passes the upload,
         then extraction cuts its frames *)
      mk "stage/gate-extract-binary" (fun () ->
          if Sanids_extract.Extractor.suspicious benign_upload then
            ignore (Sanids_extract.Extractor.extract benign_upload));
      mk "stage/scan-benign-binary" (fun () ->
          Matcher.scan_report_slice ~templates benign_frame);
      mk "stage/scan-decoy" (fun () -> Matcher.scan_report_slice ~templates decoy);
      (* the decode memo's fill alone: a fresh cache over the benign
         frame, looked up once at every offset (both tiers) *)
      mk "stage/memo-fill-benign" (fun () ->
          let c = Sanids_ir.Icache.create benign_code in
          for off = 0 to String.length benign_code - 1 do
            ignore (Sanids_ir.Icache.lookup c off)
          done);
      (* its first tier alone: a fresh cache over the same frame, a shape
         (length, kinds, successor) classified at every offset *)
      mk "stage/memo-tier1-benign" (fun () ->
          let c = Sanids_ir.Icache.create benign_code in
          for off = 0 to String.length benign_code - 1 do
            ignore (Sanids_ir.Icache.shape c off)
          done);
      mk "stage/ruleset" (fun () ->
          Sanids_baseline.Rule.(match_payload default poly));
      mk "stage/decode-record-ethernet" (fun () ->
          Sanids_ingest.Ingest.decode_record ~linktype:Sanids_pcap.Pcap.linktype_ethernet
            (next_record ()));
      mk "stage/classify-outbreak" (fun () ->
          Sanids_classify.Classifier.classify classifier (next_packet ()));
    ]

let run ?(quota = 0.25) () =
  Bench_util.hr "Micro-benchmarks (bechamel, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second quota) ~kde:None () in
  let raw = Benchmark.all cfg instances (tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some (v :: _) -> v
        | Some [] | None -> nan
      in
      rows := (name, ns) :: !rows)
    results;
  let rows = List.sort compare !rows in
  Bench_util.table [ "kernel"; "time/run" ]
    (List.map
       (fun (name, ns) ->
         let rendered =
           if Float.is_nan ns then "n/a"
           else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [ name; rendered ])
       rows)
