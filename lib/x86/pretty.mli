(** Intel-syntax rendering of instructions, for listings and alerts. *)

val pp : Format.formatter -> Insn.t -> unit
(** One instruction, e.g. [xor byte ptr \[eax\], 0x95]. *)

val to_string : Insn.t -> string
val program_to_string : Insn.t list -> string
(** Newline-separated listing. *)
