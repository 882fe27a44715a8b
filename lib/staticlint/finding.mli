(** Lint findings — the common currency of the detector-artifact linter.

    Every check in {!Template_lint}, {!Subsume}, {!Rule_lint},
    {!Trace_lint} and [Config.lint] reports through this one record, so
    findings from templates, rules, configuration and extracted frames
    render uniformly (text or JSONL), sort stably, and drive one exit
    code.  Codes are {e stable}: ["SL001"] means the same defect class
    forever; tooling may grep for them. *)

type severity =
  | Error  (** the artifact is broken: it can never work as written *)
  | Warn  (** the artifact works but wastes budget or duplicates coverage *)
  | Info  (** diagnostic observation; never fails a lint run *)

type t = {
  code : string;  (** stable defect-class code, ["SL001"]… *)
  severity : severity;
  subject : string;
      (** what was linted: ["template:decrypt-loop"], ["rule:3"],
          ["config"], ["trace:poly.bin"] *)
  loc : string option;  (** position within the subject: ["step 2"]… *)
  message : string;
}

val v :
  code:string -> severity:severity -> subject:string -> ?loc:string ->
  string -> t

val counts : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val summary : t list -> string
(** ["N errors, N warnings, N infos"]. *)

val failed : strict:bool -> t list -> bool
(** Any [Error] finding; under [strict], any [Warn] too.  [Info] never
    fails. *)

val to_line : t -> string
(** One human line: [CODE severity subject (loc): message]. *)

val to_json : t -> string
(** One JSON object (single line, keys in fixed order, [loc] omitted
    when absent) — JSONL-ready and byte-stable for a given finding. *)
