(** IA-32 instruction AST for the shellcode-relevant subset.

    The subset covers everything emitted by real polymorphic shellcode
    engines (ADMmutate, Clet) and classic exploit payloads: data movement,
    the eight ModRM arithmetic/logic operations, unary not/neg/inc/dec,
    shifts and rotates, stack traffic, all short branches, [loop]
    variants, [int], string operations, and x86 NOP-equivalents.

    Displacements of control-flow instructions are {e relative to the end
    of the instruction}, exactly as encoded. *)

type scale = S1 | S2 | S4 | S8

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;  (** index register may not be [ESP] *)
  disp : int32;
}
(** [base + index*scale + disp] effective address. *)

type operand =
  | Reg of Reg.t
  | Reg8 of Reg.r8
  | Imm of int32  (** immediate; byte-sized contexts use the low 8 bits *)
  | Mem of mem

type size = S8bit | S32bit

type arith = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp
(** The ModRM arithmetic group, in /digit order (Add = /0 ... Cmp = /7). *)

type shift = Rol | Ror | Shl | Shr | Sar

type cc = O | NO | B | AE | E | NE | BE | A | S | NS | P | NP | L | GE | LE | G
(** Condition codes in hardware tttn order (O = 0 ... G = 0xF). *)

type t =
  | Mov of size * operand * operand  (** [Mov (sz, dst, src)] *)
  | Arith of arith * size * operand * operand  (** [dst op= src] *)
  | Test of size * operand * operand
  | Not of size * operand
  | Neg of size * operand
  | Inc of size * operand
  | Dec of size * operand
  | Shift of shift * size * operand * int  (** immediate count 1..31 *)
  | Lea of Reg.t * mem
  | Xchg of Reg.t * Reg.t
  | Push_reg of Reg.t
  | Pop_reg of Reg.t
  | Push_imm of int32
  | Pushad
  | Popad
  | Pushfd
  | Popfd
  | Jmp_rel of int
  | Jcc_rel of cc * int
  | Call_rel of int
  | Loop of int
  | Loope of int
  | Loopne of int
  | Jecxz of int
  | Ret
  | Int of int  (** interrupt vector, 0..255 *)
  | Int3
  | Nop
  | Cld
  | Std
  | Lodsb
  | Lodsd
  | Stosb
  | Stosd
  | Movsb
  | Movsd
  | Scasb
  | Cmpsb
  | Cdq
  | Cwde
  | Clc
  | Stc
  | Cmc
  | Sahf
  | Lahf
  | Fwait
  | Rep_movsb  (** F3 A4: copy ECX bytes *)
  | Rep_movsd
  | Rep_stosb  (** F3 AA: fill ECX bytes with AL *)
  | Rep_stosd
  | Movzx of Reg.t * operand  (** 0F B6: zero-extend a byte source *)
  | Movsx of Reg.t * operand  (** 0F BE: sign-extend a byte source *)
  | Mul of size * operand  (** F6/F7 /4: EDX:EAX = EAX * src (unsigned) *)
  | Imul of size * operand  (** F6/F7 /5 *)
  | Div of size * operand  (** F6/F7 /6: EAX, EDX = divmod (unsigned) *)
  | Idiv of size * operand  (** F6/F7 /7 *)
  | Imul2 of Reg.t * operand  (** 0F AF: r32 = r32 * r/m32 *)
  | Imul3 of Reg.t * operand * int32  (** 69/6B: r32 = r/m32 * imm *)
  | Bad of int  (** a byte the decoder could not interpret *)

val equal : t -> t -> bool

val mem_abs : int32 -> mem
(** Absolute address [disp] with no base or index. *)

val mem_base : Reg.t -> mem
(** [\[reg\]] with zero displacement. *)

val mem_base_disp : Reg.t -> int32 -> mem

val cc_code : cc -> int
val cc_of_code : int -> cc
val cc_name : cc -> string
val arith_name : arith -> string
val shift_name : shift -> string

(** {1 Views}  Where an instruction sends control and which operands it
    names, decided once per constructor.  Analyses read these and keep
    only what an instruction does implicitly. *)

type flow =
  | Next
  | Jump of int
  | Branch of int  (** taken to end + displacement, or falls through *)
  | Call of int
  | Return  (** to the popped word *)
  | Halt  (** [int3] or an undecodable byte *)

val flow : t -> flow
(** Displacements are relative to the end of the instruction.  [int n]
    is [Next]: the machine resumes after it. *)

type access = Read | Write | Read_write

val operands : t -> (access * operand) list
(** The explicit operands, destination first: [lea]'s destination,
    [xchg]'s pair and [imul]'s immediate included, implicit registers
    left out.  A [Mem] operand is a memory access; [lea]'s address is
    listed as what it reads (base, index, and the displacement as an
    [Imm]), since [lea] touches no memory. *)

val operand_regs : operand -> Reg.t list
(** The registers an operand names: a byte register as its 32-bit
    parent, a memory operand as its base and index. *)
