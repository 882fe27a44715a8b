type rop = Ra of Insn.arith | Rnot | Rneg | Rshift of Insn.shift

type value = Vconst of int32 | Vreg of Reg.t | Vunknown

type t =
  | S_load of { width : Insn.size; dst : Reg.t; ptr : Reg.t; disp : int32 }
  | S_store of { width : Insn.size; src : value; ptr : Reg.t; disp : int32 }
  | S_memop of {
      op : rop;
      width : Insn.size;
      ptr : Reg.t;
      disp : int32;
      src : value;
    }
  | S_regop of { op : rop; width : Insn.size; dst : Reg.t; src : value }
  | S_set of { width : Insn.size; dst : Reg.t; src : value }
  | S_advance of { reg : Reg.t; amount : int32; implicit : bool }
  | S_lea of {
      dst : Reg.t;
      base : Reg.t option;
      index : (Reg.t * Insn.scale) option;
      disp : int32;
    }
  | S_xchg of Reg.t * Reg.t
  | S_push of value
  | S_pop of Reg.t
  | S_cmp
  | S_branch of { kind : [ `Jmp | `Cond | `Loop | `Loop_cc | `Jecxz | `Call ]; disp : int }
  | S_syscall of int
  | S_ret
  | S_halt
  | S_nop
  | S_other of { writes : Reg.t list; writes_mem : bool }

let low_byte_parent (r : Reg.r8) : Reg.t option =
  match r with
  | Reg.AL -> Some Reg.EAX
  | Reg.CL -> Some Reg.ECX
  | Reg.DL -> Some Reg.EDX
  | Reg.BL -> Some Reg.EBX
  | Reg.AH | Reg.CH | Reg.DH | Reg.BH -> None

let vregs = Array.map (fun r -> Vreg r) Reg.all
let vreg r = vregs.(Reg.code r)

let value_of (o : Insn.operand) : value =
  match o with
  | Insn.Imm v -> Vconst v
  | Insn.Reg r -> vreg r
  | Insn.Reg8 r -> (
      match low_byte_parent r with Some p -> vreg p | None -> Vunknown)
  | Insn.Mem _ -> Vunknown

let other ?(writes_mem = false) writes = S_other { writes; writes_mem }

(* a string instruction's pointer bump *)
let adv reg amount = S_advance { reg; amount; implicit = true }

(* Lift [op dst, src] where dst is a register operand. *)
let lift_reg_dst (rop : rop) width (dst_parent : Reg.t) (src : Insn.operand) =
  [| S_regop { op = rop; width; dst = dst_parent; src = value_of src } |]

let lift_arith (aop : Insn.arith) (sz : Insn.size) dst src : t array =
  match aop with
  | Insn.Cmp -> [| S_cmp |]
  | Insn.Add | Insn.Or | Insn.Adc | Insn.Sbb | Insn.And | Insn.Sub | Insn.Xor
    -> (
      match (dst, src, sz) with
      (* xor r,r and sub r,r are idiomatic zeroing *)
      | Insn.Reg a, Insn.Reg b, Insn.S32bit
        when Reg.equal a b && (aop = Insn.Xor || aop = Insn.Sub) ->
          [| S_set { width = Insn.S32bit; dst = a; src = Vconst 0l } |]
      (* add/sub r32, imm is pointer arithmetic *)
      | Insn.Reg r, Insn.Imm v, Insn.S32bit when aop = Insn.Add ->
          [| S_advance { reg = r; amount = v; implicit = false } |]
      | Insn.Reg r, Insn.Imm v, Insn.S32bit when aop = Insn.Sub ->
          [| S_advance { reg = r; amount = Int32.neg v; implicit = false } |]
      | Insn.Reg r, _, Insn.S32bit ->
          lift_reg_dst (Ra aop) Insn.S32bit r src
      | Insn.Reg8 r, _, Insn.S8bit -> (
          match low_byte_parent r with
          | Some p -> lift_reg_dst (Ra aop) Insn.S8bit p src
          | None -> [| other [ Reg.parent8 r ] |])
      (* a memory operand the IR can reason about: a single base register
         plus displacement; anything else is summarized conservatively *)
      | Insn.Mem { base = Some ptr; index = None; disp }, _, _ ->
          [| S_memop { op = Ra aop; width = sz; ptr; disp; src = value_of src } |]
      | Insn.Mem _, _, _ -> [| other [] ~writes_mem:true |]
      | (Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _), _, _ -> [| other [] |])

let lift_rmw (rop : rop) (sz : Insn.size) (o : Insn.operand) (src : value) : t array =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> [| S_regop { op = rop; width = sz; dst = r; src } |]
  | Insn.Reg8 r, Insn.S8bit -> (
      match low_byte_parent r with
      | Some p -> [| S_regop { op = rop; width = sz; dst = p; src } |]
      | None -> [| other [ Reg.parent8 r ] |])
  | Insn.Mem { base = Some ptr; index = None; disp }, _ ->
      [| S_memop { op = rop; width = sz; ptr; disp; src } |]
  | Insn.Mem _, _ -> [| other [] ~writes_mem:true |]
  | (Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _), _ -> [| other [] |]

let lift_incdec (sign : int32) (sz : Insn.size) (o : Insn.operand) : t array =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> [| S_advance { reg = r; amount = sign; implicit = false } |]
  | _ -> lift_rmw (Ra Insn.Add) sz o (Vconst sign)

let lift (i : Insn.t) : t array =
  match i with
  | Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Imm v) ->
      [| S_set { width = Insn.S32bit; dst = d; src = Vconst v } |]
  | Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Reg s) ->
      [| S_set { width = Insn.S32bit; dst = d; src = vreg s } |]
  | Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Mem { base = Some ptr; index = None; disp }) ->
      [| S_load { width = Insn.S32bit; dst = d; ptr; disp } |]
  | Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Mem _) -> [| other [ d ] |]
  | Insn.Mov (Insn.S32bit, Insn.Mem { base = Some ptr; index = None; disp }, src) ->
      [| S_store { width = Insn.S32bit; src = value_of src; ptr; disp } |]
  | Insn.Mov (Insn.S32bit, Insn.Mem _, _) -> [| other [] ~writes_mem:true |]
  | Insn.Mov (Insn.S8bit, Insn.Reg8 d, src) -> (
      match low_byte_parent d with
      | None -> [| other [ Reg.parent8 d ] |]
      | Some p -> (
          match src with
          | Insn.Imm v -> [| S_set { width = Insn.S8bit; dst = p; src = Vconst v } |]
          | Insn.Reg8 _ -> [| S_set { width = Insn.S8bit; dst = p; src = value_of src } |]
          | Insn.Mem { base = Some ptr; index = None; disp } ->
              [| S_load { width = Insn.S8bit; dst = p; ptr; disp } |]
          | Insn.Mem _ | Insn.Reg _ -> [| other [ p ] |]))
  | Insn.Mov (Insn.S8bit, Insn.Mem { base = Some ptr; index = None; disp }, src) ->
      let v =
        match src with
        | Insn.Imm _ | Insn.Reg8 _ -> value_of src
        | Insn.Reg _ | Insn.Mem _ -> Vunknown
      in
      [| S_store { width = Insn.S8bit; src = v; ptr; disp } |]
  | Insn.Mov (Insn.S8bit, Insn.Mem _, _) -> [| other [] ~writes_mem:true |]
  | Insn.Mov (_, _, _) -> [| other [] |]
  | Insn.Arith (aop, sz, dst, src) -> lift_arith aop sz dst src
  | Insn.Test (_, _, _) -> [| S_cmp |]
  | Insn.Not (sz, o) -> lift_rmw Rnot sz o Vunknown
  | Insn.Neg (sz, o) -> lift_rmw Rneg sz o Vunknown
  | Insn.Inc (sz, o) -> lift_incdec 1l sz o
  | Insn.Dec (sz, o) -> lift_incdec (-1l) sz o
  | Insn.Shift (sop, sz, o, n) -> lift_rmw (Rshift sop) sz o (Vconst (Int32.of_int n))
  | Insn.Lea (r, m) -> (
      match (m.Insn.base, m.Insn.index) with
      | Some b, None when Reg.equal b r ->
          [| S_advance { reg = r; amount = m.Insn.disp; implicit = false } |]
      | base, index -> [| S_lea { dst = r; base; index; disp = m.Insn.disp } |])
  | Insn.Xchg (a, b) -> if Reg.equal a b then [| S_nop |] else [| S_xchg (a, b) |]
  | Insn.Push_reg r -> [| S_push (vreg r) |]
  | Insn.Pop_reg r -> [| S_pop r |]
  | Insn.Push_imm v -> [| S_push (Vconst v) |]
  | Insn.Pushad -> Array.make 8 (S_push Vunknown)
  | Insn.Popad -> [| other (Array.to_list Reg.all) |]
  | Insn.Pushfd -> [| S_push Vunknown |]
  | Insn.Popfd -> [| other [ Reg.ESP ] |]
  | Insn.Jmp_rel d -> [| S_branch { kind = `Jmp; disp = d } |]
  | Insn.Jcc_rel (_, d) -> [| S_branch { kind = `Cond; disp = d } |]
  | Insn.Call_rel d -> [| S_push Vunknown; S_branch { kind = `Call; disp = d } |]
  | Insn.Loop d -> [| S_branch { kind = `Loop; disp = d } |]
  | Insn.Loope d | Insn.Loopne d -> [| S_branch { kind = `Loop_cc; disp = d } |]
  | Insn.Jecxz d -> [| S_branch { kind = `Jecxz; disp = d } |]
  | Insn.Ret -> [| S_ret |]
  | Insn.Int n -> [| S_syscall n |]
  | Insn.Int3 | Insn.Bad _ -> [| S_halt |]
  | Insn.Nop | Insn.Cld | Insn.Std | Insn.Clc | Insn.Stc | Insn.Cmc | Insn.Sahf
  | Insn.Fwait ->
      [| S_nop |]
  | Insn.Lodsb ->
      [| S_load { width = Insn.S8bit; dst = Reg.EAX; ptr = Reg.ESI; disp = 0l }; adv Reg.ESI 1l |]
  | Insn.Lodsd ->
      [| S_load { width = Insn.S32bit; dst = Reg.EAX; ptr = Reg.ESI; disp = 0l }; adv Reg.ESI 4l |]
  | Insn.Stosb ->
      [|
        S_store { width = Insn.S8bit; src = Vreg Reg.EAX; ptr = Reg.EDI; disp = 0l };
        adv Reg.EDI 1l;
      |]
  | Insn.Stosd ->
      [|
        S_store { width = Insn.S32bit; src = Vreg Reg.EAX; ptr = Reg.EDI; disp = 0l };
        adv Reg.EDI 4l;
      |]
  | Insn.Movsb -> [| other [] ~writes_mem:true; adv Reg.ESI 1l; adv Reg.EDI 1l |]
  | Insn.Movsd -> [| other [] ~writes_mem:true; adv Reg.ESI 4l; adv Reg.EDI 4l |]
  | Insn.Scasb -> [| S_cmp; adv Reg.EDI 1l |]
  | Insn.Cmpsb -> [| S_cmp; adv Reg.ESI 1l; adv Reg.EDI 1l |]
  | Insn.Cdq -> [| other [ Reg.EDX ] |]
  | Insn.Cwde | Insn.Lahf -> [| other [ Reg.EAX ] |]
  | Insn.Rep_movsb | Insn.Rep_movsd -> [| other [ Reg.ESI; Reg.EDI; Reg.ECX ] ~writes_mem:true |]
  | Insn.Rep_stosb | Insn.Rep_stosd -> [| other [ Reg.EDI; Reg.ECX ] ~writes_mem:true |]
  | Insn.Movzx (d, src) -> (
      match src with
      | Insn.Mem { base = Some ptr; index = None; disp } ->
          (* a zero-extending byte load is still a byte load to the
             matcher; the zeroed upper bytes only help the decoder *)
          [|
            S_set { width = Insn.S32bit; dst = d; src = Vconst 0l };
            S_load { width = Insn.S8bit; dst = d; ptr; disp };
          |]
      | Insn.Reg8 s -> (
          match low_byte_parent s with
          | Some sp when sp = d ->
              (* movzx r32, its own low byte: zeroing the destination
                 first would destroy the source — it is just a mask *)
              [|
                S_regop
                  {
                    op = Ra Insn.And;
                    width = Insn.S32bit;
                    dst = d;
                    src = Vconst 0xFFl;
                  };
              |]
          | Some sp ->
              [|
                S_set { width = Insn.S32bit; dst = d; src = Vconst 0l };
                S_set { width = Insn.S8bit; dst = d; src = vreg sp };
              |]
          | None -> [| other [ d ] |])
      | Insn.Mem _ | Insn.Reg _ | Insn.Imm _ -> [| other [ d ] |])
  | Insn.Movsx (d, src) -> (
      match src with
      | Insn.Mem { base = Some ptr; index = None; disp } ->
          [| S_load { width = Insn.S8bit; dst = d; ptr; disp }; other [ d ] |]
      | Insn.Mem _ | Insn.Reg8 _ | Insn.Reg _ | Insn.Imm _ -> [| other [ d ] |])
  | Insn.Mul (Insn.S8bit, _) | Insn.Imul (Insn.S8bit, _) | Insn.Div (Insn.S8bit, _)
  | Insn.Idiv (Insn.S8bit, _) ->
      (* AX = AL * r/m8, or AL and AH from AX / r/m8: EDX is untouched *)
      [| other [ Reg.EAX ] |]
  | Insn.Mul (Insn.S32bit, _) | Insn.Imul (Insn.S32bit, _) | Insn.Div (Insn.S32bit, _)
  | Insn.Idiv (Insn.S32bit, _) ->
      [| other [ Reg.EAX; Reg.EDX ] |]
  | Insn.Imul2 (d, _) -> [| other [ d ] |]
  | Insn.Imul3 (d, _, _) -> [| other [ d ] |]

(* Semantic-kind bits: one per operation class a template step can
   consume. *)
let k_load = 1
let k_store = 2
let k_memop = 4
let k_regop = 8
let k_advance = 16
let k_branch = 32
let k_syscall = 64
let k_push = 128
let k_other = 256

let kind_bit = function
  | S_load _ -> k_load
  | S_store _ -> k_store
  | S_memop _ -> k_memop
  | S_regop _ -> k_regop
  | S_advance _ -> k_advance
  | S_branch _ -> k_branch
  | S_syscall _ -> k_syscall
  | S_push _ -> k_push
  | S_set _ | S_lea _ | S_xchg _ | S_pop _ | S_cmp | S_ret | S_halt | S_nop
  | S_other _ ->
      k_other

let kinds (sems : t array) =
  let m = ref 0 in
  for i = 0 to Array.length sems - 1 do
    m := !m lor kind_bit sems.(i)
  done;
  !m

let writes = function
  | S_load { dst; _ } -> [ dst ]
  | S_store _ -> []
  | S_memop _ -> []
  | S_regop { dst; _ } -> [ dst ]
  | S_set { dst; _ } -> [ dst ]
  | S_advance { reg; _ } -> [ reg ]
  | S_lea { dst; _ } -> [ dst ]
  | S_xchg (a, b) -> [ a; b ]
  | S_push _ -> [ Reg.ESP ]
  | S_pop r -> [ r; Reg.ESP ]
  | S_cmp -> []
  | S_branch { kind = `Call; _ } -> [ Reg.ESP ]
  | S_branch { kind = `Loop | `Loop_cc; _ } -> [ Reg.ECX ]
  | S_branch { kind = `Jmp | `Cond | `Jecxz; _ } -> []
  | S_syscall _ -> [ Reg.EAX ]
  | S_ret -> [ Reg.ESP ]
  | S_halt | S_nop -> []
  | S_other { writes; _ } -> writes

let writes_memory = function
  | S_store _ | S_memop _ | S_push _ -> true
  | S_other { writes_mem; _ } -> writes_mem
  | S_load _ | S_regop _ | S_set _ | S_advance _ | S_lea _ | S_xchg _ | S_pop _
  | S_cmp | S_branch _ | S_syscall _ | S_ret | S_halt | S_nop ->
      false

let pp_rop ppf = function
  | Ra a -> Format.pp_print_string ppf (Insn.arith_name a)
  | Rnot -> Format.pp_print_string ppf "not"
  | Rneg -> Format.pp_print_string ppf "neg"
  | Rshift s -> Format.pp_print_string ppf (Insn.shift_name s)

let pp_value ppf = function
  | Vconst v -> Format.fprintf ppf "0x%lx" v
  | Vreg r -> Reg.pp ppf r
  | Vunknown -> Format.pp_print_string ppf "?"

let pp_width ppf (w : Insn.size) =
  Format.pp_print_string ppf (match w with Insn.S8bit -> "b" | Insn.S32bit -> "d")

let pp ppf = function
  | S_load { width; dst; ptr; disp } ->
      Format.fprintf ppf "load.%a %a <- [%a+%ld]" pp_width width Reg.pp dst Reg.pp ptr disp
  | S_store { width; src; ptr; disp } ->
      Format.fprintf ppf "store.%a [%a+%ld] <- %a" pp_width width Reg.pp ptr disp pp_value src
  | S_memop { op; width; ptr; disp; src } ->
      Format.fprintf ppf "memop.%a %a [%a+%ld], %a" pp_width width pp_rop op Reg.pp ptr
        disp pp_value src
  | S_regop { op; width; dst; src } ->
      Format.fprintf ppf "regop.%a %a %a, %a" pp_width width pp_rop op Reg.pp dst pp_value src
  | S_set { width; dst; src } ->
      Format.fprintf ppf "set.%a %a <- %a" pp_width width Reg.pp dst pp_value src
  | S_advance { reg; amount; implicit } ->
      Format.fprintf ppf "adv%s %a, %ld" (if implicit then "*" else "") Reg.pp reg amount
  | S_lea { dst; _ } -> Format.fprintf ppf "lea %a, <ea>" Reg.pp dst
  | S_xchg (a, b) -> Format.fprintf ppf "xchg %a, %a" Reg.pp a Reg.pp b
  | S_push v -> Format.fprintf ppf "push %a" pp_value v
  | S_pop r -> Format.fprintf ppf "pop %a" Reg.pp r
  | S_cmp -> Format.pp_print_string ppf "cmp"
  | S_branch { kind; disp } ->
      let k =
        match kind with
        | `Jmp -> "jmp"
        | `Cond -> "jcc"
        | `Loop -> "loop"
        | `Loop_cc -> "loopcc"
        | `Jecxz -> "jecxz"
        | `Call -> "call"
      in
      Format.fprintf ppf "branch.%s %+d" k disp
  | S_syscall n -> Format.fprintf ppf "syscall 0x%x" n
  | S_ret -> Format.pp_print_string ppf "ret"
  | S_halt -> Format.pp_print_string ppf "halt"
  | S_nop -> Format.pp_print_string ppf "nop"
  | S_other { writes; writes_mem } ->
      Format.fprintf ppf "other(writes=[%s]%s)"
        (String.concat "," (List.map Reg.name writes))
        (if writes_mem then ",mem" else "")
