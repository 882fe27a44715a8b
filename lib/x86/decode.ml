module R = Byte_io.Reader

type decoded = { off : int; len : int; insn : Insn.t }

exception Unsupported
(* Internal: the bytes form no supported instruction; the caller rolls the
   cursor back and emits [Bad] for the first byte. *)

let sign8 b = if b >= 0x80 then b - 0x100 else b

(* Preallocated immutable values, shared by every decode instead of
   allocated afresh: register operands, [Some] base registers, [Bad] for
   each byte, and the boxed [int32] of each imm8/disp8 under zero and
   sign extension, with the zero-extended ones also as [Imm] operands.
   Nothing outside this module sees the arrays, only their immutable
   elements. *)
let reg_ops = Array.map (fun r -> Insn.Reg r) Reg.all
let reg8_ops = Array.map (fun r -> Insn.Reg8 r) Reg.all8
let some_regs = Array.map Option.some Reg.all
let bads = Array.init 256 (fun b -> Insn.Bad b)
let zx8 = Array.init 256 Int32.of_int
let sx8 = Array.init 256 (fun b -> Int32.of_int (sign8 b))
let imm8_ops = Array.map (fun v -> Insn.Imm v) zx8

let tables_intact () =
  reg_ops = Array.map (fun r -> Insn.Reg r) Reg.all
  && reg8_ops = Array.map (fun r -> Insn.Reg8 r) Reg.all8
  && some_regs = Array.map Option.some Reg.all
  && bads = Array.init 256 (fun b -> Insn.Bad b)
  && zx8 = Array.init 256 Int32.of_int
  && sx8 = Array.init 256 (fun b -> Int32.of_int (sign8 b))
  && imm8_ops = Array.init 256 (fun b -> Insn.Imm (Int32.of_int b))

let sign8_32 b = sx8.(b)

(* Sign-extend a little-endian u32 read into a signed OCaml int (for
   relative displacements). *)
let rel32 r =
  let v = R.u32_le_int r in
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let scale_of_bits = function
  | 0 -> Insn.S1
  | 1 -> Insn.S2
  | 2 -> Insn.S4
  | _ -> Insn.S8

(* A displacement after ModRM/SIB: [md] 1 is a sign-extended byte, 2 a
   dword, 0 a dword only for an absolute address (no base register). *)
let parse_disp r md ~absolute =
  match md with
  | 1 -> sx8.(R.u8 r)
  | 2 -> R.u32_le r
  | _ -> if absolute then R.u32_le r else 0l

let parse_mem r md rm : Insn.mem =
  if rm = 4 then begin
    let sib = R.u8 r in
    let idx = (sib lsr 3) land 7 in
    let index = if idx = 4 then None else Some (Reg.of_code idx, scale_of_bits (sib lsr 6)) in
    let base_bits = sib land 7 in
    let absolute = base_bits = 5 && md = 0 in
    let base = if absolute then None else some_regs.(base_bits) in
    { Insn.base; index; disp = parse_disp r md ~absolute }
  end
  else
    let absolute = rm = 5 && md = 0 in
    let base = if absolute then None else some_regs.(rm) in
    { Insn.base; index = None; disp = parse_disp r md ~absolute }

let reg_op ~size code =
  match size with
  | Insn.S32bit -> reg_ops.(code)
  | Insn.S8bit -> reg8_ops.(code)

(* A ModRM byte [m], already read, splits into its reg (or /digit)
   field and its r/m operand; [parse_rm] reads any SIB byte and
   displacement that follow it.  Two functions rather than one returning
   a pair, which would allocate the pair on every decode. *)
let reg_field m = (m lsr 3) land 7

let parse_rm r m ~size =
  let md = m lsr 6 in
  let rm = m land 7 in
  if md = 3 then reg_op ~size rm else Insn.Mem (parse_mem r md rm)

let arith_of_digit = function
  | 0 -> Insn.Add
  | 1 -> Insn.Or
  | 2 -> Insn.Adc
  | 3 -> Insn.Sbb
  | 4 -> Insn.And
  | 5 -> Insn.Sub
  | 6 -> Insn.Xor
  | _ -> Insn.Cmp

let shift_of_digit = function
  | 0 -> Insn.Rol
  | 1 -> Insn.Ror
  | 4 | 6 -> Insn.Shl
  | 5 -> Insn.Shr
  | 7 -> Insn.Sar
  | _ -> raise Unsupported

let imm8_32 r = zx8.(R.u8 r)
let imm8_op r = imm8_ops.(R.u8 r)

let decode_one r : Insn.t =
  let op = R.u8 r in
  match op with
  | 0x0F -> (
      let op2 = R.u8 r in
      if op2 >= 0x80 && op2 <= 0x8F then
        Insn.Jcc_rel (Insn.cc_of_code (op2 - 0x80), rel32 r)
      else
        match op2 with
        | 0xB6 ->
            let m = R.u8 r in
            let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
            Insn.Movzx (Reg.of_code reg, rm)
        | 0xBE ->
            let m = R.u8 r in
            let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
            Insn.Movsx (Reg.of_code reg, rm)
        | 0xAF ->
            let m = R.u8 r in
            let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
            Insn.Imul2 (Reg.of_code reg, rm)
        | _ -> raise Unsupported)
  | _ when op < 0x40 -> (
      let group = op lsr 3 in
      let form = op land 7 in
      let aop = arith_of_digit group in
      match form with
      | 0 ->
          let m = R.u8 r in
          let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
          Insn.Arith (aop, Insn.S8bit, rm, reg_op ~size:Insn.S8bit reg)
      | 1 ->
          let m = R.u8 r in
          let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
          Insn.Arith (aop, Insn.S32bit, rm, reg_op ~size:Insn.S32bit reg)
      | 2 ->
          let m = R.u8 r in
          let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
          Insn.Arith (aop, Insn.S8bit, reg_op ~size:Insn.S8bit reg, rm)
      | 3 ->
          let m = R.u8 r in
          let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
          Insn.Arith (aop, Insn.S32bit, reg_op ~size:Insn.S32bit reg, rm)
      | 4 -> Insn.Arith (aop, Insn.S8bit, Insn.Reg8 Reg.AL, imm8_op r)
      | 5 -> Insn.Arith (aop, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm (R.u32_le r))
      | _ -> raise Unsupported)
  | _ when op >= 0x40 && op <= 0x47 ->
      Insn.Inc (Insn.S32bit, reg_ops.(op - 0x40))
  | _ when op >= 0x48 && op <= 0x4F ->
      Insn.Dec (Insn.S32bit, reg_ops.(op - 0x48))
  | _ when op >= 0x50 && op <= 0x57 -> Insn.Push_reg (Reg.of_code (op - 0x50))
  | _ when op >= 0x58 && op <= 0x5F -> Insn.Pop_reg (Reg.of_code (op - 0x58))
  | 0x60 -> Insn.Pushad
  | 0x61 -> Insn.Popad
  | 0x68 -> Insn.Push_imm (R.u32_le r)
  | 0x69 ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Imul3 (Reg.of_code reg, rm, R.u32_le r)
  | 0x6B ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Imul3 (Reg.of_code reg, rm, sign8_32 (R.u8 r))
  | 0x6A -> Insn.Push_imm (sign8_32 (R.u8 r))
  | _ when op >= 0x70 && op <= 0x7F ->
      Insn.Jcc_rel (Insn.cc_of_code (op - 0x70), sign8 (R.u8 r))
  | 0x80 | 0x82 ->
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      Insn.Arith (arith_of_digit digit, Insn.S8bit, rm, imm8_op r)
  | 0x81 ->
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Arith (arith_of_digit digit, Insn.S32bit, rm, Insn.Imm (R.u32_le r))
  | 0x83 ->
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Arith (arith_of_digit digit, Insn.S32bit, rm, Insn.Imm (sign8_32 (R.u8 r)))
  | 0x84 ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      Insn.Test (Insn.S8bit, rm, reg_op ~size:Insn.S8bit reg)
  | 0x85 ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Test (Insn.S32bit, rm, reg_op ~size:Insn.S32bit reg)
  | 0x87 -> (
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      match rm with
      | Insn.Reg a -> Insn.Xchg (a, Reg.of_code reg)
      | Insn.Mem _ | Insn.Reg8 _ | Insn.Imm _ -> raise Unsupported)
  | 0x88 ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      Insn.Mov (Insn.S8bit, rm, reg_op ~size:Insn.S8bit reg)
  | 0x89 ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Mov (Insn.S32bit, rm, reg_op ~size:Insn.S32bit reg)
  | 0x8A ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      Insn.Mov (Insn.S8bit, reg_op ~size:Insn.S8bit reg, rm)
  | 0x8B ->
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      Insn.Mov (Insn.S32bit, reg_op ~size:Insn.S32bit reg, rm)
  | 0x8D -> (
      let m = R.u8 r in
      let reg = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      match rm with
      | Insn.Mem mem -> Insn.Lea (Reg.of_code reg, mem)
      | Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _ -> raise Unsupported)
  | 0x90 -> Insn.Nop
  | _ when op >= 0x91 && op <= 0x97 -> Insn.Xchg (Reg.of_code (op - 0x90), Reg.EAX)
  | 0x98 -> Insn.Cwde
  | 0x99 -> Insn.Cdq
  | 0x9B -> Insn.Fwait
  | 0x9E -> Insn.Sahf
  | 0x9F -> Insn.Lahf
  | 0x9C -> Insn.Pushfd
  | 0x9D -> Insn.Popfd
  | 0xA4 -> Insn.Movsb
  | 0xA5 -> Insn.Movsd
  | 0xA6 -> Insn.Cmpsb
  | 0xA8 -> Insn.Test (Insn.S8bit, Insn.Reg8 Reg.AL, imm8_op r)
  | 0xA9 -> Insn.Test (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm (R.u32_le r))
  | 0xAA -> Insn.Stosb
  | 0xAB -> Insn.Stosd
  | 0xAC -> Insn.Lodsb
  | 0xAD -> Insn.Lodsd
  | 0xAE -> Insn.Scasb
  | _ when op >= 0xB0 && op <= 0xB7 ->
      Insn.Mov (Insn.S8bit, reg8_ops.(op - 0xB0), imm8_op r)
  | _ when op >= 0xB8 && op <= 0xBF ->
      Insn.Mov (Insn.S32bit, reg_ops.(op - 0xB8), Insn.Imm (R.u32_le r))
  | 0xC0 | 0xC1 ->
      let size = if op = 0xC0 then Insn.S8bit else Insn.S32bit in
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size in
      let sop = shift_of_digit digit in
      (* count 0 is a legal encoding: a no-op that preserves flags *)
      let count = R.u8 r land 0x1F in
      Insn.Shift (sop, size, rm, count)
  | 0xC3 -> Insn.Ret
  | 0xC6 -> (
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      if digit <> 0 then raise Unsupported
      else
        match rm with
        | Insn.Mem _ -> Insn.Mov (Insn.S8bit, rm, imm8_op r)
        | Insn.Reg8 _ -> Insn.Mov (Insn.S8bit, rm, imm8_op r)
        | Insn.Reg _ | Insn.Imm _ -> raise Unsupported)
  | 0xC7 -> (
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      if digit <> 0 then raise Unsupported
      else
        match rm with
        | Insn.Mem _ | Insn.Reg _ -> Insn.Mov (Insn.S32bit, rm, Insn.Imm (R.u32_le r))
        | Insn.Reg8 _ | Insn.Imm _ -> raise Unsupported)
  | 0xCC -> Insn.Int3
  | 0xCD -> Insn.Int (R.u8 r)
  | 0xD0 | 0xD1 ->
      let size = if op = 0xD0 then Insn.S8bit else Insn.S32bit in
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size in
      Insn.Shift (shift_of_digit digit, size, rm, 1)
  | 0xE0 -> Insn.Loopne (sign8 (R.u8 r))
  | 0xE1 -> Insn.Loope (sign8 (R.u8 r))
  | 0xE2 -> Insn.Loop (sign8 (R.u8 r))
  | 0xE3 -> Insn.Jecxz (sign8 (R.u8 r))
  | 0xE8 -> Insn.Call_rel (rel32 r)
  | 0xE9 -> Insn.Jmp_rel (rel32 r)
  | 0xEB -> Insn.Jmp_rel (sign8 (R.u8 r))
  | 0xF6 | 0xF7 -> (
      let size = if op = 0xF6 then Insn.S8bit else Insn.S32bit in
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size in
      match digit with
      | 0 ->
          let imm =
            match size with
            | Insn.S8bit -> imm8_32 r
            | Insn.S32bit -> R.u32_le r
          in
          Insn.Test (size, rm, Insn.Imm imm)
      | 2 -> Insn.Not (size, rm)
      | 3 -> Insn.Neg (size, rm)
      | 4 -> Insn.Mul (size, rm)
      | 5 -> Insn.Imul (size, rm)
      | 6 -> Insn.Div (size, rm)
      | 7 -> Insn.Idiv (size, rm)
      | _ -> raise Unsupported)
  | 0xF3 -> (
      match R.u8 r with
      | 0xA4 -> Insn.Rep_movsb
      | 0xA5 -> Insn.Rep_movsd
      | 0xAA -> Insn.Rep_stosb
      | 0xAB -> Insn.Rep_stosd
      | _ -> raise Unsupported)
  | 0xF5 -> Insn.Cmc
  | 0xF8 -> Insn.Clc
  | 0xF9 -> Insn.Stc
  | 0xFC -> Insn.Cld
  | 0xFD -> Insn.Std
  | 0xFE -> (
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S8bit in
      match digit with
      | 0 -> Insn.Inc (Insn.S8bit, rm)
      | 1 -> Insn.Dec (Insn.S8bit, rm)
      | _ -> raise Unsupported)
  | 0xFF -> (
      let m = R.u8 r in
      let digit = reg_field m and rm = parse_rm r m ~size:Insn.S32bit in
      match digit with
      | 0 -> Insn.Inc (Insn.S32bit, rm)
      | 1 -> Insn.Dec (Insn.S32bit, rm)
      | _ -> raise Unsupported)
  | _ -> raise Unsupported

let next r =
  let start = R.pos r in
  match decode_one r with
  | insn -> insn
  | exception (Unsupported | Byte_io.Truncated _ | Invalid_argument _) ->
      R.seek r start;
      bads.(R.u8 r)

let step r =
  let off = R.pos r in
  let insn = next r in
  { off; len = R.pos r - off; insn }

let all ?(pos = 0) ?len ?(max = max_int) s =
  let r = R.of_string ~pos ?len s in
  let acc = ref [] in
  let count = ref 0 in
  while (not (R.is_empty r)) && !count < max do
    acc := step r :: !acc;
    incr count
  done;
  Array.of_list (List.rev !acc)

let one s =
  if String.length s = 0 then invalid_arg "Decode.one: empty buffer";
  (step (R.of_string s)).insn

(* A reader over the whole string, seeked to [off]: [step] then records
   [off] itself, and the record is built once. *)
let at s off =
  if off < 0 || off >= String.length s then None
  else begin
    let r = R.of_string s in
    R.seek r off;
    Some (step r)
  end

let pp_listing ppf (ds : decoded array) =
  Array.iteri
    (fun i d ->
      if i > 0 then Format.fprintf ppf "@\n";
      Format.fprintf ppf "%04x: %a" d.off Pretty.pp d.insn)
    ds
