(** Two-pass mini assembler with symbolic labels.

    The polymorphic engines and exploit builders construct code as item
    lists; label-targeted branches are resolved to relative displacements
    here.  Label branches always use the rel32 forms (except the
    [loop]/[jecxz] family, which only exists as rel8), so sizing needs no
    relaxation pass. *)

type item =
  | I of Insn.t  (** a literal instruction *)
  | Label of string
  | Jmp of string
  | Jcc of Insn.cc * string
  | Call of string
  | Loop_to of string
  | Loope_to of string
  | Loopne_to of string
  | Jecxz_to of string
  | Raw of string  (** literal bytes spliced into the stream *)

exception Error of string
(** Undefined or duplicate label, or a [loop]-family branch out of rel8
    range. *)

val assemble : item list -> string
(** Resolve labels and emit machine code. *)

val assemble_insns : item list -> Insn.t list
(** The instruction stream with displacements resolved (labels dropped,
    [Raw] re-decoded), mainly for golden tests. *)
