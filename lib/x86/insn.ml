type scale = S1 | S2 | S4 | S8

type mem = {
  base : Reg.t option;
  index : (Reg.t * scale) option;
  disp : int32;
}

type operand = Reg of Reg.t | Reg8 of Reg.r8 | Imm of int32 | Mem of mem
type size = S8bit | S32bit
type arith = Add | Or | Adc | Sbb | And | Sub | Xor | Cmp
type shift = Rol | Ror | Shl | Shr | Sar
type cc = O | NO | B | AE | E | NE | BE | A | S | NS | P | NP | L | GE | LE | G

type t =
  | Mov of size * operand * operand
  | Arith of arith * size * operand * operand
  | Test of size * operand * operand
  | Not of size * operand
  | Neg of size * operand
  | Inc of size * operand
  | Dec of size * operand
  | Shift of shift * size * operand * int
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
  | Int of int
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
  | Rep_movsb
  | Rep_movsd
  | Rep_stosb
  | Rep_stosd
  | Movzx of Reg.t * operand
  | Movsx of Reg.t * operand
  | Mul of size * operand
  | Imul of size * operand
  | Div of size * operand
  | Idiv of size * operand
  | Imul2 of Reg.t * operand
  | Imul3 of Reg.t * operand * int32
  | Bad of int

let equal (a : t) (b : t) = a = b
let mem_abs disp = { base = None; index = None; disp }
let mem_base r = { base = Some r; index = None; disp = 0l }
let mem_base_disp r disp = { base = Some r; index = None; disp }

let cc_code = function
  | O -> 0
  | NO -> 1
  | B -> 2
  | AE -> 3
  | E -> 4
  | NE -> 5
  | BE -> 6
  | A -> 7
  | S -> 8
  | NS -> 9
  | P -> 10
  | NP -> 11
  | L -> 12
  | GE -> 13
  | LE -> 14
  | G -> 15

let cc_of_code = function
  | 0 -> O
  | 1 -> NO
  | 2 -> B
  | 3 -> AE
  | 4 -> E
  | 5 -> NE
  | 6 -> BE
  | 7 -> A
  | 8 -> S
  | 9 -> NS
  | 10 -> P
  | 11 -> NP
  | 12 -> L
  | 13 -> GE
  | 14 -> LE
  | 15 -> G
  | n -> invalid_arg (Printf.sprintf "Insn.cc_of_code: %d" n)

let cc_name = function
  | O -> "o"
  | NO -> "no"
  | B -> "b"
  | AE -> "ae"
  | E -> "e"
  | NE -> "ne"
  | BE -> "be"
  | A -> "a"
  | S -> "s"
  | NS -> "ns"
  | P -> "p"
  | NP -> "np"
  | L -> "l"
  | GE -> "ge"
  | LE -> "le"
  | G -> "g"

let arith_name = function
  | Add -> "add"
  | Or -> "or"
  | Adc -> "adc"
  | Sbb -> "sbb"
  | And -> "and"
  | Sub -> "sub"
  | Xor -> "xor"
  | Cmp -> "cmp"

let shift_name = function
  | Rol -> "rol"
  | Ror -> "ror"
  | Shl -> "shl"
  | Shr -> "shr"
  | Sar -> "sar"

type flow = Next | Jump of int | Branch of int | Call of int | Return | Halt

let flow = function
  | Jmp_rel d -> Jump d
  | Jcc_rel (_, d) | Loop d | Loope d | Loopne d | Jecxz d -> Branch d
  | Call_rel d -> Call d
  | Ret -> Return
  | Int3 | Bad _ -> Halt
  | Mov _ | Arith _ | Test _ | Not _ | Neg _ | Inc _ | Dec _ | Shift _
  | Lea _ | Xchg _ | Push_reg _ | Pop_reg _ | Push_imm _ | Pushad | Popad
  | Pushfd | Popfd | Int _ | Nop | Cld | Std | Lodsb | Lodsd | Stosb | Stosd
  | Movsb | Movsd | Scasb | Cmpsb | Cdq | Cwde | Clc | Stc | Cmc | Sahf
  | Lahf | Fwait | Rep_movsb | Rep_movsd | Rep_stosb | Rep_stosd | Movzx _
  | Movsx _ | Mul _ | Imul _ | Div _ | Idiv _ | Imul2 _ | Imul3 _ ->
      Next

type access = Read | Write | Read_write

let operand_regs = function
  | Reg r -> [ r ]
  | Reg8 r -> [ Reg.parent8 r ]
  | Imm _ -> []
  | Mem m ->
      (match m.base with Some b -> [ b ] | None -> [])
      @ (match m.index with Some (r, _) -> [ r ] | None -> [])

let operands = function
  | Mov (_, dst, src) -> [ (Write, dst); (Read, src) ]
  | Arith (Cmp, _, a, b) | Test (_, a, b) -> [ (Read, a); (Read, b) ]
  | Arith ((Add | Or | Adc | Sbb | And | Sub | Xor), _, dst, src) ->
      [ (Read_write, dst); (Read, src) ]
  | Not (_, o) | Neg (_, o) | Inc (_, o) | Dec (_, o) | Shift (_, _, o, _) ->
      [ (Read_write, o) ]
  | Lea (r, m) ->
      ((Write, Reg r) :: List.map (fun b -> (Read, Reg b)) (operand_regs (Mem m)))
      @ [ (Read, Imm m.disp) ]
  | Xchg (a, b) -> [ (Read_write, Reg a); (Read_write, Reg b) ]
  | Push_reg r -> [ (Read, Reg r) ]
  | Pop_reg r -> [ (Write, Reg r) ]
  | Push_imm v -> [ (Read, Imm v) ]
  | Movzx (d, o) | Movsx (d, o) -> [ (Write, Reg d); (Read, o) ]
  | Mul (_, o) | Imul (_, o) | Div (_, o) | Idiv (_, o) -> [ (Read, o) ]
  | Imul2 (d, o) -> [ (Read_write, Reg d); (Read, o) ]
  | Imul3 (d, o, v) -> [ (Write, Reg d); (Read, o); (Read, Imm v) ]
  | Pushad | Popad | Pushfd | Popfd | Jmp_rel _ | Jcc_rel _ | Call_rel _
  | Loop _ | Loope _ | Loopne _ | Jecxz _ | Ret | Int _ | Int3 | Nop | Cld
  | Std | Lodsb | Lodsd | Stosb | Stosd | Movsb | Movsd | Scasb | Cmpsb | Cdq
  | Cwde | Clc | Stc | Cmc | Sahf | Lahf | Fwait | Rep_movsb | Rep_movsd
  | Rep_stosb | Rep_stosd | Bad _ ->
      []

