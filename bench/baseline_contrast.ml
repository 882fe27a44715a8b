(* Baseline contrast — the paper's motivating claim: syntactic
   pattern-matching IDSs (Snort-style signatures) catch the plain corpus
   but miss polymorphic variants, while semantic templates catch both.
   The PAYL-style statistical baseline is shown for context. *)

open Sanids_exploits
open Sanids_baseline

let run ~instances () =
  Bench_util.hr "Baseline contrast: signatures vs semantic templates";
  let rng = Rng.create 0x7AB1EBA5L in
  let payload = (Shellcodes.find "classic").Shellcodes.code in
  let plain = List.map (fun (e : Shellcodes.entry) -> e.Shellcodes.code) Shellcodes.all in
  let poly =
    List.init instances (fun _ ->
        (Sanids_polymorph.Admmutate.generate rng ~payload).Sanids_polymorph.Admmutate.code)
  in
  let sig_hits codes =
    List.length (List.filter (fun c -> Rule.match_payload Rule.default c <> []) codes)
  in
  (* raw code corpora are matched directly; protocol payloads run the real
     pipeline stages (extraction included, so unicode-encoded vectors are
     decoded before matching) *)
  let templates = Sanids_semantic.Template_lib.default_set in
  let sem_nids =
    Sanids_nids.Pipeline.create
      (Sanids_nids.Config.default |> Sanids_nids.Config.with_classification false)
  in
  let sem_hits_code codes =
    List.length
      (List.filter (fun c -> Sanids_semantic.Matcher.scan ~templates c <> []) codes)
  in
  let sem_hits_payload codes =
    List.length
      (List.filter (fun c -> Sanids_nids.Pipeline.analyze_payload sem_nids c <> []) codes)
  in
  let benign_corpus =
    List.init 400 (fun _ -> Sanids_workload.Benign_gen.payload rng)
  in
  let model = Payl.train benign_corpus in
  (* calibrate the anomaly threshold to the 99.5th percentile of held-out
     benign scores, the way PAYL-style detectors are deployed *)
  let holdout = List.init 400 (fun _ -> Sanids_workload.Benign_gen.payload rng) in
  let threshold =
    let sorted = List.sort compare (List.map (Payl.score model) holdout) in
    List.nth sorted (int_of_float (0.995 *. float_of_int (List.length sorted)))
  in
  let payl_hits codes =
    List.length (List.filter (fun c -> Payl.is_anomalous ~threshold model c) codes)
  in
  (* automatic signature generation (Autograph/Polygraph-style): train a
     signature per corpus on held-out instances of the same kind *)
  let crii_pool = List.init 20 (fun _ -> Sanids_exploits.Code_red.request ()) in
  let crii_sig = Siggen.infer crii_pool in
  let poly_pool =
    List.init 20 (fun _ ->
        (Sanids_polymorph.Admmutate.generate rng ~payload).Sanids_polymorph.Admmutate.code)
  in
  let poly_sig = Siggen.infer poly_pool in
  let auto_hits signature codes =
    List.length (List.filter (Siggen.matches signature) codes)
  in
  let rowset ?auto ~sem name codes =
    let n = List.length codes in
    [
      name;
      string_of_int n;
      Bench_util.pct (sig_hits codes) n;
      (match auto with
      | Some signature -> Bench_util.pct (auto_hits signature codes) n
      | None -> "-");
      Bench_util.pct (payl_hits codes) n;
      Bench_util.pct (sem codes) n;
    ]
  in
  let crii_fresh = List.init 50 (fun _ -> Sanids_exploits.Code_red.request ()) in
  Bench_util.table
    [ "corpus"; "n"; "signatures"; "auto-siggen"; "payl-style"; "semantic templates" ]
    [
      rowset ~sem:sem_hits_code "plain shellcodes" plain;
      rowset ~auto:poly_sig ~sem:sem_hits_code "ADMmutate instances" poly;
      rowset ~auto:crii_sig ~sem:sem_hits_payload "Code Red II deliveries" crii_fresh;
      rowset ~auto:poly_sig ~sem:sem_hits_payload "benign payloads" benign_corpus;
    ];
  Bench_util.note
    "paper shape: signatures collapse on the polymorphic corpus; semantic templates hold at 100%% with 0%% on benign"
