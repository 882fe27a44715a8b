exception Has_branches

let i32 = Int32.of_int
let reg r = Insn.Reg r
let imm v = Insn.Imm v

let rotl32 v n =
  let n = n land 31 in
  if n = 0 then v
  else Int32.logor (Int32.shift_left v n) (Int32.shift_right_logical v (32 - n))

(* Equivalent rewrites.  Flag effects may differ between alternatives
   (inc preserves CF where add does not), which is sound because [mutate]
   only accepts branch-free programs. *)
let substitute rng (insn : Insn.t) : Insn.t list =
  let pick = Rng.int rng in
  match insn with
  | Insn.Mov (Insn.S32bit, Insn.Reg r, Insn.Imm v) -> (
      match pick 4 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Push_imm v; Insn.Pop_reg r ]
      | 2 ->
          let m = i32 (Rng.int rng 0x10000) in
          [
            Insn.Mov (Insn.S32bit, reg r, imm (Int32.logxor v m));
            Insn.Arith (Insn.Xor, Insn.S32bit, reg r, imm m);
          ]
      | _ ->
          let k = i32 (Rng.int rng 0x10000) in
          [
            Insn.Mov (Insn.S32bit, reg r, imm (Int32.sub v k));
            Insn.Arith (Insn.Add, Insn.S32bit, reg r, imm k);
          ])
  | Insn.Mov (Insn.S32bit, Insn.Reg a, Insn.Reg b) -> (
      match pick 2 with
      | 0 -> [ insn ]
      | _ -> [ Insn.Push_reg b; Insn.Pop_reg a ])
  | Insn.Inc (Insn.S32bit, Insn.Reg r) -> (
      match pick 4 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Arith (Insn.Add, Insn.S32bit, reg r, imm 1l) ]
      | 2 -> [ Insn.Arith (Insn.Sub, Insn.S32bit, reg r, imm (-1l)) ]
      | _ -> [ Insn.Lea (r, Insn.mem_base_disp r 1l) ])
  | Insn.Dec (Insn.S32bit, Insn.Reg r) -> (
      match pick 4 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Arith (Insn.Sub, Insn.S32bit, reg r, imm 1l) ]
      | 2 -> [ Insn.Arith (Insn.Add, Insn.S32bit, reg r, imm (-1l)) ]
      | _ -> [ Insn.Lea (r, Insn.mem_base_disp r (-1l)) ])
  | Insn.Arith (Insn.Add, Insn.S32bit, Insn.Reg r, Insn.Imm v) -> (
      match pick 3 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Arith (Insn.Sub, Insn.S32bit, reg r, imm (Int32.neg v)) ]
      | _ -> [ Insn.Lea (r, Insn.mem_base_disp r v) ])
  | Insn.Arith (Insn.Sub, Insn.S32bit, Insn.Reg r, Insn.Imm v) -> (
      match pick 3 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Arith (Insn.Add, Insn.S32bit, reg r, imm (Int32.neg v)) ]
      | _ -> [ Insn.Lea (r, Insn.mem_base_disp r (Int32.neg v)) ])
  | Insn.Arith (Insn.Xor, Insn.S32bit, Insn.Reg a, Insn.Reg b)
    when Reg.equal a b -> (
      match pick 3 with
      | 0 -> [ insn ]
      | 1 -> [ Insn.Arith (Insn.Sub, Insn.S32bit, reg a, reg a) ]
      | _ ->
          [
            Insn.Mov (Insn.S32bit, reg a, imm (rotl32 0l (Rng.int rng 31)));
          ])
  | Insn.Push_imm v -> (
      match pick 2 with
      | 0 -> [ insn ]
      | _ ->
          (* split the immediate across two stack writes: push the xored
             value, then fix it in place *)
          let m = i32 (Rng.int rng 0x10000) in
          [
            Insn.Push_imm (Int32.logxor v m);
            Insn.Arith
              (Insn.Xor, Insn.S32bit, Insn.Mem (Insn.mem_base Reg.ESP), imm m);
          ])
  | Insn.Nop -> if pick 2 = 0 then [ Insn.Nop ] else []
  | other -> [ other ]

let is_relative_branch (insn : Insn.t) =
  match Insn.flow insn with
  | Insn.Jump _ | Insn.Branch _ | Insn.Call _ -> true
  | Insn.Next | Insn.Return | Insn.Halt -> false

(* every register an instruction names, normalized to 32-bit parents:
   the union of the lifted semantic footprint and a direct operand scan
   (which also covers complex addressing the IR summarizes away) *)
let operand_regs (insn : Insn.t) =
  (match insn with
  | Insn.Mul _ | Insn.Imul _ | Insn.Div _ | Insn.Idiv _ -> [ Reg.EAX; Reg.EDX ]
  | _ -> [])
  @ List.concat_map (fun (_, o) -> Insn.operand_regs o) (Insn.operands insn)

let regs_of_insn (insn : Insn.t) =
  operand_regs insn @ List.concat_map Sem.writes (Array.to_list (Sem.lift insn))

let mutate ?(junk = 2) rng insns =
  if List.exists is_relative_branch insns then raise Has_branches;
  let live =
    List.sort_uniq compare (Reg.ESP :: List.concat_map regs_of_insn insns)
  in
  List.concat_map
    (fun insn ->
      let garbage =
        if junk > 0 then Junk.items rng ~live (Rng.int rng (junk + 1)) else []
      in
      let garbage =
        List.filter_map (function Asm.I x -> Some x | _ -> None) garbage
      in
      garbage @ substitute rng insn)
    insns

let mutate_code ?junk rng code =
  let insns =
    Array.to_list
      (Array.map (fun (d : Decode.decoded) -> d.Decode.insn) (Decode.all code))
  in
  Encode.program (mutate ?junk rng insns)
