(** Driver for the detector-artifact linter: compose the per-artifact
    checks and render their findings.

    The [sanids lint] subcommand and the [@lint] build alias are thin
    wrappers over this module. *)

type format = Text | Json | Sarif

val templates : Template.t list -> Finding.t list
(** {!Template_lint.lint}, {!Subsume.lint}, then {!Absint_lint.lint}
    (the SL4xx semantic pass over each template's canonical
    realization). *)

val rules_text : string -> Finding.t list
(** {!Rule_lint.lint_text}. *)

val catalog : (string * string) list
(** Every stable finding code with its owning pass — the registry
    behind [SL000] and the DESIGN.md documentation check in the
    [@lint] alias.  Codes must be unique across passes. *)

val selftest_codes : Finding.t list -> Finding.t list
(** The [SL000] meta-check: an {e error} finding for each duplicate
    catalog code and for each emitted code missing from {!catalog} —
    appended by [sanids lint --selftest] so an undocumented or
    colliding code fails the selftest run. *)

val render : format -> Finding.t list -> string
(** [Text]/[Json]: one line per finding ({!Finding.to_line} or
    {!Finding.to_json}), each newline-terminated; [""] for no findings.
    [Sarif]: one minimal SARIF 2.1.0 document (single line) with a rule
    entry per distinct code and a result per finding.  JSON and SARIF
    output are byte-stable for a given finding list. *)

val exit_code : strict:bool -> Finding.t list -> int
(** [0] when the run passes, [65] ([EX_DATAERR]) when it fails per
    {!Finding.failed}. *)
