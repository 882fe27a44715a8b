(** Garbage instruction generation.

    Junk is woven between a decoder's real instructions to break
    syntactic signatures.  Like real engines, the generator never
    clobbers the registers the decoder is using ([live]); everything
    else — dead registers, flags, balanced stack traffic — is fair
    game. *)

val items : Rng.t -> live:Reg.t list -> int -> Asm.item list
(** [items rng ~live n] is roughly [n] junk instructions (stack-balanced
    pairs count as two). *)

val const_route : Rng.t -> Reg.t -> int32 -> Asm.item list
(** Load a constant into a register by a randomly chosen arithmetic
    route: direct, add/sub-split, xor-split, push/pop, negation, or
    rotation.  Every route folds back to the constant under
    {!Sanids_ir.Absint}. *)
