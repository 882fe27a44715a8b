(** Intermediate representation: normalized semantic operations.

    This is the "IR generator" stage of the paper's pipeline.  Each x86
    instruction lifts to a short array of {!t} values that describe {e what
    the instruction does} rather than how it is spelled: all four of
    [inc eax], [add eax,1], [sub eax,-1] and [lea eax,[eax+1]] lift to the
    same [S_advance], and 8-bit register names are normalized to their
    32-bit parent (the [width] field records the access size).  The
    template matcher and the abstract interpreter both work exclusively on
    this representation, which is what makes matching robust to equivalent
    instruction substitution. *)

type rop =
  | Ra of Insn.arith  (** two-operand arithmetic/logic *)
  | Rnot
  | Rneg
  | Rshift of Insn.shift
(** Transform operations, unified across register and memory targets. *)

type value =
  | Vconst of int32
  | Vreg of Reg.t  (** value currently held in a register *)
  | Vunknown

type t =
  | S_load of { width : Insn.size; dst : Reg.t; ptr : Reg.t; disp : int32 }
      (** [dst := mem\[ptr+disp\]] *)
  | S_store of { width : Insn.size; src : value; ptr : Reg.t; disp : int32 }
  | S_memop of {
      op : rop;
      width : Insn.size;
      ptr : Reg.t;
      disp : int32;
      src : value;  (** [Vunknown] for unary ops *)
    }  (** read-modify-write of one memory cell *)
  | S_regop of { op : rop; width : Insn.size; dst : Reg.t; src : value }
  | S_set of { width : Insn.size; dst : Reg.t; src : value }
      (** register assignment; [width = S8bit] touches only the low byte
          ([AH]-family sets lift as [S_other]) *)
  | S_advance of { reg : Reg.t; amount : int32; implicit : bool }
      (** [reg := reg + amount], any spelling; [implicit] marks pointer
          bumps that are side effects of string instructions *)
  | S_lea of { dst : Reg.t; base : Reg.t option; index : (Reg.t * Insn.scale) option; disp : int32 }
  | S_xchg of Reg.t * Reg.t
  | S_push of value
  | S_pop of Reg.t
  | S_cmp  (** compare/test: reads only, sets flags *)
  | S_branch of { kind : [ `Jmp | `Cond | `Loop | `Loop_cc | `Jecxz | `Call ]; disp : int }
  | S_syscall of int  (** [int n] *)
  | S_ret
  | S_halt  (** int3 / undecodable byte: straight-line execution ends *)
  | S_nop
  | S_other of { writes : Reg.t list; writes_mem : bool }
      (** catch-all with a sound clobber summary *)

val lift : Insn.t -> t array
(** Semantic operations of one instruction, in execution order.  Never
    returns the empty array. *)

(** {1 Semantic kinds}

    One bit per operation class a template step can consume.  A trace
    step's kind mask is the OR over its operations ({!kinds}), computed
    once when the step is decoded; the matcher compares it with each
    template step's demand. *)

val k_load : int
val k_store : int
val k_memop : int
val k_regop : int
val k_advance : int
val k_branch : int
val k_syscall : int
val k_push : int

val kind_bit : t -> int
(** The operation's class bit; the classes no template step consumes
    ([S_set], [S_lea], [S_xchg], [S_pop], [S_cmp], [S_ret], [S_halt],
    [S_nop], [S_other]) share one further bit. *)

val kinds : t array -> int
(** OR of {!kind_bit} over the operations. *)

val writes : t -> Reg.t list
(** 32-bit registers (normalized) this operation may modify. *)

val writes_memory : t -> bool

val pp : Format.formatter -> t -> unit
val pp_rop : Format.formatter -> rop -> unit
