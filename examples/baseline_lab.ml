(* A tour of the detector families the paper positions itself against,
   on one polymorphic campaign:

   1. hand-written Snort-style rules (the 2006 deployment reality);
   2. automatically generated signatures (Autograph/Polygraph-style);
   3. PAYL-style byte-frequency anomaly detection;
   4. the semantic analyzer.

   Run with: dune exec examples/baseline_lab.exe *)

open Sanids

let classic = (Shellcodes.find "classic").Shellcodes.code

let () =
  let rng = Rng.create 0x1AB5L in
  let campaign =
    List.init 40 (fun _ -> (Admmutate.generate rng ~payload:classic).Admmutate.code)
  in
  let hits name f =
    let n = List.length (List.filter f campaign) in
    Printf.printf "  %-34s %2d/40\n" name n
  in
  Printf.printf "polymorphic campaign: 40 ADMmutate instances of one shellcode\n\n";

  (* 1. static rules *)
  hits "snort-style rules" (fun c -> Rule.match_payload Rule.default c <> []);

  (* 2. automatic signature generation from the first 15 instances *)
  let pool, _rest =
    List.filteri (fun i _ -> i < 15) campaign,
    List.filteri (fun i _ -> i >= 15) campaign
  in
  let auto = Siggen.infer pool in
  Printf.printf "  (auto-siggen extracted %d tokens from a 15-sample pool)\n"
    (List.length auto.Siggen.tokens);
  hits "auto-generated signature" (Siggen.matches auto);

  (* 3. statistical anomaly *)
  let benign = List.init 300 (fun _ -> Benign_gen.payload rng) in
  let model = Payl.train benign in
  hits "payl-style anomaly (threshold 1.5)" (Payl.is_anomalous model);

  (* 4. semantic templates *)
  hits "semantic templates" (fun c ->
      Matcher.scan ~templates:Template_lib.default_set c <> [])
