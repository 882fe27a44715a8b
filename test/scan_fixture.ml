(* Exactness fixture for the template scan kernel.  Prints
   [Matcher.scan_report] over a seeded corpus — benign binary frames,
   decoy decoders, ADMmutate/Clet decoders and adversarial complexity
   bombs — once with no budget and once under a tight budget plus a
   per-template step cap.  Each case records the [pp_result] lines, the
   outcome, the tripped templates, the decode-memo hit/miss counts and
   (budgeted) the fuel spent, so any change to what the kernel matches
   or to how many steps it charges shows up as a diff against the
   committed [scan_fixture.expected].  Regenerate with
   [dune build @runtest --auto-promote] only when a change in verdicts
   is intended. *)

open Sanids_semantic
open Sanids_extract
module W = Sanids_workload
module P = Sanids_polymorph
module Obs = Sanids_obs

let classic = (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code

let benign_binary = { W.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 }

(* Benign binary payloads cut into the frames the pipeline would scan;
   they stay slices so the view entry point is covered. *)
let benign_frames rng n =
  List.concat_map
    (fun i ->
      let payload = W.Benign_gen.payload ~mix:benign_binary rng in
      List.mapi
        (fun j (f : Extractor.frame) ->
          (Printf.sprintf "benign-binary-%d.%d" i j, f.Extractor.data))
        (Extractor.extract (Slice.of_string payload)))
    (List.init n Fun.id)

let adversarial rng kind n size =
  List.init n (fun i ->
      ( Printf.sprintf "%s-%d" (W.Adversarial.kind_to_string kind) i,
        Slice.of_string (W.Adversarial.payload ~kind ~size rng) ))

let decoders rng =
  let adm family name =
    List.init 3 (fun i ->
        ( Printf.sprintf "admmutate-%s-%d" name i,
          Slice.of_string (P.Admmutate.generate ~family rng ~payload:classic).P.Admmutate.code ))
  in
  adm P.Admmutate.Xor_loop "xor"
  @ adm P.Admmutate.Alt_chain "alt"
  @ List.init 2 (fun i ->
        ( Printf.sprintf "admmutate-staged-%d" i,
          Slice.of_string (P.Admmutate.generate_staged rng ~payload:classic).P.Admmutate.code ))
  @ List.init 3 (fun i ->
        ( Printf.sprintf "clet-%d" i,
          Slice.of_string (P.Clet.generate rng ~payload:classic).P.Clet.code ))

let corpus () =
  let rng = Rng.create 0x5CA4F1L in
  benign_frames rng 12
  @ adversarial rng W.Adversarial.Decoy_decoder 4 2048
  @ decoders rng
  @ adversarial rng W.Adversarial.Unicode_bomb 1 4096
  @ adversarial rng W.Adversarial.Repetition_bomb 1 4096
  @ adversarial rng W.Adversarial.Jmp_maze 2 4096
  @ adversarial rng W.Adversarial.Garbage_x86 2 2048

let tight = { Budget.unlimited with Budget.max_insns = 1400; max_match_steps = 12_000 }
let step_cap = 3000

let run (name, data) ~budgeted =
  let reg = Obs.Registry.create () in
  let budget = if budgeted then Some (Budget.start tight) else None in
  let step_cap = if budgeted then Some step_cap else None in
  let report =
    Matcher.scan_report_slice ~metrics:reg ?budget ?step_cap
      ~templates:Template_lib.default_set data
  in
  let count n = Obs.Registry.counter_value (Obs.Registry.counter reg n) in
  Printf.printf "## %s (%d bytes, %s)\n" name (Slice.length data)
    (if budgeted then "tight" else "unbudgeted");
  Printf.printf "outcome=%s tripped=[%s] memo=%d/%d\n"
    (Budget.outcome_to_string report.Matcher.outcome)
    (String.concat ";" report.Matcher.tripped)
    (count Matcher.decode_memo_hits) (count Matcher.decode_memo_misses);
  (match budget with
  | Some b ->
      let s = Budget.spent b in
      Printf.printf "spent insns=%d steps=%d\n" s.Budget.insns s.Budget.steps
  | None -> ());
  List.iter
    (fun r -> print_endline (Format.asprintf "%a" Matcher.pp_result r))
    report.Matcher.results

let () =
  let cases = corpus () in
  List.iter (run ~budgeted:false) cases;
  List.iter (run ~budgeted:true) cases
