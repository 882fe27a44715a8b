type severity = Error | Warn | Info

type t = {
  code : string;
  severity : severity;
  subject : string;
  loc : string option;
  message : string;
}

let v ~code ~severity ~subject ?loc message =
  { code; severity; subject; loc; message }

let severity_to_string = function
  | Error -> "error"
  | Warn -> "warn"
  | Info -> "info"

let counts fs =
  List.fold_left
    (fun (e, w, i) f ->
      match f.severity with
      | Error -> (e + 1, w, i)
      | Warn -> (e, w + 1, i)
      | Info -> (e, w, i + 1))
    (0, 0, 0) fs

let summary fs =
  let e, w, i = counts fs in
  Printf.sprintf "%d errors, %d warnings, %d infos" e w i

let failed ~strict fs =
  List.exists
    (fun f -> f.severity = Error || (strict && f.severity = Warn))
    fs

let to_line f =
  Printf.sprintf "%s %-5s %s%s: %s" f.code
    (severity_to_string f.severity)
    f.subject
    (match f.loc with Some l -> " (" ^ l ^ ")" | None -> "")
    f.message

let to_json f =
  Json.to_string
    (Json.Obj
       ([
          ("code", Json.String f.code);
          ("severity", Json.String (severity_to_string f.severity));
          ("subject", Json.String f.subject);
        ]
       @ (match f.loc with Some l -> [ ("loc", Json.String l) ] | None -> [])
       @ [ ("message", Json.String f.message) ]))
