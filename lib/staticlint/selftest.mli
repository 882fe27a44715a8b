(** A deliberately defective artifact corpus, one specimen per defect
    class, embedded so [sanids lint --selftest] can demonstrate every
    finding code without external files — and so tests can assert the
    linter still catches each seeded defect. *)

val templates : Template.t list
(** Templates seeded with SL001–SL011 and SL401–SL403 defects (names
    [st-*]). *)

val findings : unit -> Finding.t list
(** Lint the corpus: template findings, subsumption findings, semantic
    (SL4xx) findings, then the findings of an embedded ruleset seeded
    with SL100 and SL102–SL105 defects — in that order. *)
