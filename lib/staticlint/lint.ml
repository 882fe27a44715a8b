type format = Text | Json | Sarif

let templates ts = Template_lint.lint ts @ Subsume.lint ts @ Absint_lint.lint ts
let rules_text = Rule_lint.lint_text

(* ------------------------------------------------------------------ *)
(* The code catalog: every stable finding code any pass can emit, with
   its owning pass.  [sanids lint --selftest] checks the emitted codes
   against this list (SL000), and the @lint alias greps DESIGN.md for
   each entry — the catalog is what keeps codes unique and documented. *)

let catalog =
  [
    ("SL001", "template"); ("SL002", "template"); ("SL003", "template");
    ("SL004", "template"); ("SL005", "template"); ("SL006", "template");
    ("SL007", "template"); ("SL008", "subsume"); ("SL009", "subsume");
    ("SL010", "subsume"); ("SL011", "subsume");
    ("SL100", "rule"); ("SL101", "rule"); ("SL102", "rule");
    ("SL103", "rule"); ("SL104", "rule"); ("SL105", "rule");
    ("SL201", "config"); ("SL202", "config"); ("SL203", "config");
    ("SL204", "config"); ("SL205", "config"); ("SL206", "config");
    ("SL207", "config"); ("SL208", "config"); ("SL209", "config");
    ("SL301", "trace"); ("SL302", "trace"); ("SL303", "trace");
    ("SL401", "absint"); ("SL402", "absint"); ("SL403", "absint");
    ("SL404", "trace");
  ]

(* SL000: the meta-check behind --selftest — the catalog must be
   duplicate-free and must cover every code the linted findings carry. *)
let selftest_codes findings =
  let out = ref [] in
  let emit msg =
    out :=
      Finding.v ~code:"SL000" ~severity:Finding.Error ~subject:"catalog" msg :: !out
  in
  let rec dups seen = function
    | [] -> ()
    | (c, pass) :: rest ->
        (match List.assoc_opt c seen with
        | Some pass' ->
            emit
              (Printf.sprintf
                 "finding code %s is claimed by both the %s and %s passes — \
                  codes are stable API and must be unique"
                 c pass' pass)
        | None -> ());
        dups ((c, pass) :: seen) rest
  in
  dups [] catalog;
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.code <> "SL000" && not (List.mem_assoc f.Finding.code catalog)
      then
        emit
          (Printf.sprintf
             "emitted finding code %s is not in the catalog (and so not \
              documented in DESIGN.md)"
             f.Finding.code))
    findings;
  List.rev !out

(* ------------------------------------------------------------------ *)

(* Minimal SARIF 2.1.0: one run, one driver, rule ids from the distinct
   finding codes, one result per finding.  Byte-stable for a given
   finding list. *)
let to_sarif findings =
  let str s = Json.String s in
  let level (f : Finding.t) =
    match f.Finding.severity with
    | Finding.Error -> "error"
    | Finding.Warn -> "warning"
    | Finding.Info -> "note"
  in
  let rule_ids =
    List.sort_uniq compare (List.map (fun (f : Finding.t) -> f.Finding.code) findings)
  in
  let result (f : Finding.t) =
    let name =
      match f.Finding.loc with
      | Some l -> f.Finding.subject ^ " (" ^ l ^ ")"
      | None -> f.Finding.subject
    in
    Json.Obj
      [
        ("ruleId", str f.Finding.code);
        ("level", str (level f));
        ("message", Json.Obj [ ("text", str f.Finding.message) ]);
        ( "locations",
          Json.List
            [
              Json.Obj
                [ ("logicalLocations", Json.List [ Json.Obj [ ("name", str name) ] ]) ];
            ] );
      ]
  in
  let driver =
    Json.Obj
      [
        ("name", str "sanids-lint");
        ("rules", Json.List (List.map (fun c -> Json.Obj [ ("id", str c) ]) rule_ids));
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("$schema", str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", str "2.1.0");
         ( "runs",
           Json.List
             [
               Json.Obj
                 [
                   ("tool", Json.Obj [ ("driver", driver) ]);
                   ("results", Json.List (List.map result findings));
                 ];
             ] );
       ])
  ^ "\n"

let render fmt findings =
  match fmt with
  | Sarif -> to_sarif findings
  | Text | Json ->
      let line =
        match fmt with Text -> Finding.to_line | _ -> Finding.to_json
      in
      String.concat "" (List.map (fun f -> line f ^ "\n") findings)

let exit_code ~strict findings =
  if Finding.failed ~strict findings then 65 else 0
