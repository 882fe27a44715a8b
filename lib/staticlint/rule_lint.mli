(** Baseline ruleset lint: dead, degenerate and redundant signatures.

    Codes (stable):
    - [SL100] {e error} — a rule line fails to parse.
    - [SL101] {e error} — a rule has no content pattern (or an empty
      one): it alerts on header match alone, which is never the intent
      of a signature baseline.
    - [SL102] {e warn} — an unanchored single-byte pattern: it matches
      a constant fraction of all traffic and only burns budget.
    - [SL103] {e warn} — the same content constraint appears twice in
      one rule.
    - [SL104] {e warn} — two rules share header and contents: an exact
      duplicate (messages may differ, coverage does not).
    - [SL105] {e warn} — a rule is substring-shadowed: some other
      single-content, unanchored, header-at-least-as-general rule fires
      on every packet this one fires on. *)

val lint_text : string -> Finding.t list
(** Parse a ruleset (one rule per line, ['#'] comments and blanks
    skipped) and lint it.  Subjects are ["rule:<line>"]. *)
