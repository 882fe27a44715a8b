(** Metamorphic code transformation (paper §3).

    Unlike the encrypting engines, metamorphism rewrites the program
    itself: equivalent instruction substitution, garbage insertion and
    NOP insertion over an instruction list, preserving behaviour exactly
    (validated against the emulator in the test suite).  Control-flow
    instructions are never touched, so relative displacements stay
    valid only when the rewrite is length-preserving — which it is not —
    hence [mutate] rejects programs with relative branches; use the
    engines for looping code, and this pass for straight-line payloads. *)

exception Has_branches
(** Raised by {!mutate} when the input contains relative control flow. *)

val mutate : ?junk:int -> Rng.t -> Insn.t list -> Insn.t list
(** Substitution plus up to [junk] (default 2) garbage instructions
    between originals.  Garbage never touches registers the program
    reads or writes.  @raise Has_branches on relative control flow. *)

val mutate_code : ?junk:int -> Rng.t -> string -> string
(** [mutate] over decoded bytes, re-encoded. *)
