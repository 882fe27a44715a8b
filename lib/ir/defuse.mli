(** Def-use chains over an execution trace.

    For each trace position, which earlier position last defined each
    register the instruction reads — and, dually, whether a write is ever
    consumed before being overwritten.  This is the def-use machinery the
    semantic-matching literature leans on; here it also powers junk
    diagnostics: garbage instructions inserted by polymorphic engines are
    exactly the {e dead writes}, so {!dead_fraction} measures an engine's
    junk density from the outside. *)

type def_site = Entry | At of int
(** Where a value was defined: live at trace entry, or by the step at
    this trace index. *)

type t

val analyze : Trace.t -> t

val reads : t -> int -> (Reg.t * def_site) list
(** Registers read by the instruction at a trace index, each with its
    reaching definition. *)

val is_dead_write : t -> int -> bool
(** The instruction writes at least one register and none of its written
    registers (nor memory, nor control flow) is ever consumed later in
    the trace.  Flag-only and no-effect instructions count as dead;
    memory writes, stack pushes, branches and syscalls never do. *)

val dead_fraction : t -> float
(** Share of trace instructions that are dead writes — a junk-density
    estimate. *)

val uses_of : t -> int -> int list
(** Trace indices that consume a value defined at the given index. *)
