(** SL4xx: semantic template lints over the lifted-IR abstract
    interpreter ({!Sanids_ir.Absint}).

    Each template is {e realized} as one canonical machine-code program
    — fixed register assignment, guard-satisfying constants, pointer
    variables aimed at a data area appended after the code — and the
    realization is analyzed abstractly.  The findings then come from the
    fixpoint rather than template syntax.

    Codes (stable):
    - [SL401] {e warn} — a step whose realized instruction no abstract
      path reaches (includes straight-line code after a provable
      [exit] syscall).
    - [SL402] {e error} — a guard that can never hold because its
      variable is bound at an 8-bit site (syscall [AL]/[BL] byte, [W8]
      transform key) and the guard admits no value in [0, 255];
      {e info} — a guard decided by that same width fact alone (vacuous
      given the binding site).
    - [SL403] {e warn} — a template claiming a decrypt loop (a
      [Back_edge]) whose realization's abstract may-write region
      provably misses its own image: it can never write a byte it later
      executes, so it cannot evidence self-decryption.

    Templates with no encodable realization (too many register
    variables, displacement overflow) produce no findings — the pass is
    best-effort and never blocks an artifact it cannot model. *)

val lint : Template.t list -> Finding.t list
(** All SL4xx findings, in template order. *)
