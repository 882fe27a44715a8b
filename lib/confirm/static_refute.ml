(* A bounded abstract executor that mirrors Emulator.step over the
   Absint.V interval/known-bits domain.  Everything here is written
   against one contract: return [Some _] only when the concrete
   [Confirm.run] with the same inputs must return [Refuted _].  Any
   imprecision that could possibly flip that verdict raises [Bail],
   which surfaces as [None] — the hit then pays for the emulator
   exactly as it did before this stage existed. *)

module Insn = Sanids_x86.Insn
module Reg = Sanids_x86.Reg
module Decode = Sanids_x86.Decode
module Emulator = Sanids_x86.Emulator
module V = Sanids_ir.Absint.V
module Imap = Map.Make (Int)

exception Bail
exception Refuted_path of string

let refute fmt = Printf.ksprintf (fun m -> raise (Refuted_path m)) fmt

type ctx = { code : string; len : int; arena : int; cfg : Confirm.config }

type path = {
  regs : V.t array;  (* indexed by Reg.code; treated as immutable *)
  eip : int;  (* arena offset; bounds-checked at fetch *)
  df : bool option;  (* None once popfd loads an unknown flags word *)
  steps : int;
  syscalls : int;
  overlay : V.t Imap.t;  (* abstractly written bytes, each within [0,255] *)
  distinct : int;  (* |overlay| — mirror of the confirmer's written count *)
}

let getr p r = p.regs.(Reg.code r)

let setr p r v =
  let regs = Array.copy p.regs in
  regs.(Reg.code r) <- v;
  { p with regs }

let u64 v = Int64.logand (Int64.of_int32 v) 0xFFFF_FFFFL
let base64 = u64 Emulator.code_base

(* ------------------------------------------------------------------ *)
(* memory: pristine image + written-byte overlay *)

let byte_at ctx p off =
  match Imap.find_opt off p.overlay with
  | Some v -> v
  | None -> V.const (if off < ctx.len then Int32.of_int (Char.code ctx.code.[off]) else 0l)

let store_byte p off v =
  let existed = Imap.mem off p.overlay in
  {
    p with
    overlay = Imap.add off v p.overlay;
    distinct = (if existed then p.distinct else p.distinct + 1);
  }

(* Where can an access of [width] bytes at abstract address [a] land?
   [Exact off]: every represented address is the single in-arena offset
   [off] with all [width] bytes inside.  [Outside]: every concrete
   execution faults at this access (some byte of it is unmapped) — a
   deterministic [Halted], even if a prefix of the bytes was written
   first.  [Unknown]: could go either way. *)
type aclass = Exact of int | Outside | Unknown

let classify ctx a width =
  match V.is_const a with
  | Some addr ->
      let off = Int32.to_int (Int32.sub addr Emulator.code_base) in
      if off >= 0 && off <= ctx.arena - width then Exact off else Outside
  | None -> (
      match V.bounds a with
      | None -> Outside (* bottom: no concretization at all *)
      | Some (lo, hi) ->
          if
            Int64.compare hi base64 < 0
            || Int64.compare lo (Int64.add base64 (Int64.of_int (ctx.arena - width))) > 0
          then Outside
          else Unknown)

let shl v n = V.shift Insn.Shl v n
let shr v n = if n = 0 then v else V.shift Insn.Shr v n

let mem_read ctx p a width =
  match classify ctx a width with
  | Outside -> refute "memory read faults"
  | Unknown ->
      (* in-arena concretizations may see anything; out-of-arena ones
         refute on their own at this very access *)
      if width = 1 then V.range 0L 255L else V.top_clean
  | Exact off ->
      if width = 1 then byte_at ctx p off
      else
        let b i = byte_at ctx p (off + i) in
        let all_const =
          match (V.is_const (b 0), V.is_const (b 1), V.is_const (b 2), V.is_const (b 3)) with
          | Some b0, Some b1, Some b2, Some b3 ->
              Some
                (Int32.logor b0
                   (Int32.logor
                      (Int32.shift_left b1 8)
                      (Int32.logor (Int32.shift_left b2 16) (Int32.shift_left b3 24))))
          | _ -> None
        in
        (match all_const with
        | Some v -> V.const v
        | None ->
            V.logor (b 0) (V.logor (shl (b 1) 8) (V.logor (shl (b 2) 16) (shl (b 3) 24))))

let mem_write ctx p a width v =
  match classify ctx a width with
  | Outside -> refute "memory write faults"
  | Unknown -> raise Bail (* may write in-arena at an unknown offset *)
  | Exact off ->
      if width = 1 then store_byte p off (V.low_byte v)
      else begin
        match V.is_const v with
        | Some c ->
            let b sh = V.const (Int32.logand (Int32.shift_right_logical c sh) 0xFFl) in
            let p = store_byte p off (b 0) in
            let p = store_byte p (off + 1) (b 8) in
            let p = store_byte p (off + 2) (b 16) in
            store_byte p (off + 3) (b 24)
        | None ->
            let b sh = V.low_byte (shr v sh) in
            let p = store_byte p off (b 0) in
            let p = store_byte p (off + 1) (b 8) in
            let p = store_byte p (off + 2) (b 16) in
            store_byte p (off + 3) (b 24)
      end

(* ------------------------------------------------------------------ *)
(* operands *)

let scale_int = function Insn.S1 -> 1l | Insn.S2 -> 2l | Insn.S4 -> 4l | Insn.S8 -> 8l

let ea p (m : Insn.mem) =
  let base = match m.Insn.base with Some b -> getr p b | None -> V.const 0l in
  let index =
    match m.Insn.index with
    | Some (r, sc) -> V.mul (getr p r) (V.const (scale_int sc))
    | None -> V.const 0l
  in
  V.add_wrapped (V.add base index) m.Insn.disp

let is_high8 (r : Reg.r8) =
  match r with Reg.AH | Reg.CH | Reg.DH | Reg.BH -> true | _ -> false

let reg8_get p (r : Reg.r8) =
  let parent = getr p (Reg.parent8 r) in
  if is_high8 r then V.logand (shr parent 8) (V.const 0xFFl) else V.low_byte parent

(* [v] must lie within [0,255] *)
let reg8_set p (r : Reg.r8) v =
  let pr = Reg.parent8 r in
  let parent = getr p pr in
  let merged =
    if is_high8 r then
      match (V.is_const parent, V.is_const v) with
      | Some pc, Some vc ->
          V.const (Int32.logor (Int32.logand pc 0xFFFF00FFl) (Int32.shift_left vc 8))
      | _ -> V.logor (V.logand parent (V.const 0xFFFF00FFl)) (shl v 8)
    else V.merge_low8 parent v
  in
  setr p pr merged

let read_operand ctx p (sz : Insn.size) (o : Insn.operand) =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> getr p r
  | Insn.Reg8 r, Insn.S8bit -> reg8_get p r
  | Insn.Imm v, Insn.S32bit -> V.const v
  | Insn.Imm v, Insn.S8bit -> V.const (Int32.logand v 0xFFl)
  | Insn.Mem m, Insn.S32bit -> mem_read ctx p (ea p m) 4
  | Insn.Mem m, Insn.S8bit -> mem_read ctx p (ea p m) 1
  | Insn.Reg _, Insn.S8bit | Insn.Reg8 _, Insn.S32bit -> refute "operand width mismatch"

let write_operand ctx p (sz : Insn.size) (o : Insn.operand) v =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> setr p r v
  | Insn.Reg8 r, Insn.S8bit -> reg8_set p r (V.low_byte v)
  | Insn.Mem m, Insn.S32bit -> mem_write ctx p (ea p m) 4 v
  | Insn.Mem m, Insn.S8bit -> mem_write ctx p (ea p m) 1 v
  | Insn.Imm _, _ -> refute "write to immediate"
  | Insn.Reg _, Insn.S8bit | Insn.Reg8 _, Insn.S32bit -> refute "operand width mismatch"

let trunc sz v =
  match sz with Insn.S8bit -> V.logand v (V.const 0xFFl) | Insn.S32bit -> v

(* a value whose exact magnitude we lost; keep the taint judgement *)
let wide_top vs = if List.exists V.taint vs then V.top else V.top_clean
let byte_unknown vs = V.tainted (V.range 0L 255L) |> fun t -> if List.exists V.taint vs then t else V.range 0L 255L

(* ------------------------------------------------------------------ *)
(* stack *)

let do_push ctx p v =
  let esp = V.add_wrapped (getr p Reg.ESP) (-4l) in
  let p = setr p Reg.ESP esp in
  mem_write ctx p esp 4 v

let do_pop ctx p =
  let esp = getr p Reg.ESP in
  let v = mem_read ctx p esp 4 in
  (v, setr p Reg.ESP (V.add_wrapped esp 4l))

(* ------------------------------------------------------------------ *)
(* string ops *)

let advanced p v n =
  match p.df with
  | Some false -> V.add_wrapped v (Int32.of_int n)
  | Some true -> V.add_wrapped v (Int32.of_int (-n))
  | None -> V.join (V.add_wrapped v (Int32.of_int n)) (V.add_wrapped v (Int32.of_int (-n)))

let lods ctx p n =
  let esi = getr p Reg.ESI in
  let v = mem_read ctx p esi n in
  let p = if n = 1 then reg8_set p Reg.AL v else setr p Reg.EAX v in
  setr p Reg.ESI (advanced p esi n)

let stos ctx p n =
  let edi = getr p Reg.EDI in
  let v = if n = 1 then reg8_get p Reg.AL else getr p Reg.EAX in
  let p = mem_write ctx p edi n v in
  setr p Reg.EDI (advanced p edi n)

let movs ctx p n =
  let esi = getr p Reg.ESI and edi = getr p Reg.EDI in
  let v = mem_read ctx p esi n in
  let p = mem_write ctx p edi n v in
  let p = setr p Reg.ESI (advanced p esi n) in
  setr p Reg.EDI (advanced p edi n)

(* ------------------------------------------------------------------ *)
(* 8-bit shift mirror (exact on constants, [0,255] otherwise) *)

let shift8_const (op : Insn.shift) v count =
  let n = count land 31 in
  if n = 0 then v
  else
    match op with
    | Insn.Shl -> (v lsl n) land 0xFF
    | Insn.Shr -> v lsr n
    | Insn.Sar ->
        let s = if v land 0x80 <> 0 then v - 0x100 else v in
        s asr n land 0xFF
    | Insn.Rol ->
        let n = n mod 8 in
        if n = 0 then v else ((v lsl n) lor (v lsr (8 - n))) land 0xFF
    | Insn.Ror ->
        let n = n mod 8 in
        if n = 0 then v else ((v lsr n) lor (v lsl (8 - n))) land 0xFF

let do_shift sz op v n =
  match sz with
  | Insn.S32bit -> V.shift op v n
  | Insn.S8bit -> (
      match V.is_const v with
      | Some c -> V.const (Int32.of_int (shift8_const op (Int32.to_int c land 0xFF) n))
      | None -> byte_unknown [ v ])

(* ------------------------------------------------------------------ *)
(* one instruction: returns the successor paths (1, 2, or 0 when every
   branch direction is infeasible) *)

let step_insn ctx p (d : Decode.decoded) =
  let next32 =
    Int32.add (Int32.add Emulator.code_base (Int32.of_int p.eip)) (Int32.of_int d.Decode.len)
  in
  let next = p.eip + d.Decode.len in
  let jrel disp =
    Int32.to_int (Int32.sub (Int32.add next32 (Int32.of_int disp)) Emulator.code_base)
  in
  let p = { p with steps = p.steps + 1 } in
  let at p off = [ { p with eip = off } ] in
  let fall p = at p next in
  match d.Decode.insn with
  | Insn.Mov (sz, dst, src) -> fall (write_operand ctx p sz dst (read_operand ctx p sz src))
  | Insn.Arith (op, sz, dst, src) ->
      let a = read_operand ctx p sz dst in
      let b = read_operand ctx p sz src in
      let write v = write_operand ctx p sz dst (trunc sz v) in
      fall
        (match op with
        | Insn.Add -> write (V.add a b)
        | Insn.Adc ->
            let s = V.add a b in
            write (V.join s (V.add_wrapped s 1l))
        | Insn.Sub -> write (V.sub a b)
        | Insn.Sbb ->
            let s = V.sub a b in
            write (V.join s (V.add_wrapped s (-1l)))
        | Insn.Cmp -> p
        | Insn.And -> write (V.logand a b)
        | Insn.Or -> write (V.logor a b)
        | Insn.Xor -> write (V.logxor a b))
  | Insn.Test (sz, a, b) ->
      let _ = read_operand ctx p sz a in
      let _ = read_operand ctx p sz b in
      fall p
  | Insn.Not (sz, o) ->
      fall (write_operand ctx p sz o (trunc sz (V.lognot (read_operand ctx p sz o))))
  | Insn.Neg (sz, o) ->
      fall (write_operand ctx p sz o (trunc sz (V.neg (read_operand ctx p sz o))))
  | Insn.Inc (sz, o) ->
      fall (write_operand ctx p sz o (trunc sz (V.add_wrapped (read_operand ctx p sz o) 1l)))
  | Insn.Dec (sz, o) ->
      fall (write_operand ctx p sz o (trunc sz (V.add_wrapped (read_operand ctx p sz o) (-1l))))
  | Insn.Shift (op, sz, o, n) ->
      fall (write_operand ctx p sz o (do_shift sz op (read_operand ctx p sz o) n))
  | Insn.Lea (r, m) -> fall (setr p r (ea p m))
  | Insn.Xchg (a, b) ->
      let va = getr p a and vb = getr p b in
      fall (setr (setr p a vb) b va)
  | Insn.Push_reg r -> fall (do_push ctx p (getr p r))
  | Insn.Pop_reg r ->
      let v, p = do_pop ctx p in
      fall (setr p r v)
  | Insn.Push_imm v -> fall (do_push ctx p (V.const v))
  | Insn.Pushad ->
      let esp0 = getr p Reg.ESP in
      let values =
        List.map
          (fun r -> if Reg.equal r Reg.ESP then esp0 else getr p r)
          [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.EBX; Reg.ESP; Reg.EBP; Reg.ESI; Reg.EDI ]
      in
      fall (List.fold_left (fun p v -> do_push ctx p v) p values)
  | Insn.Popad ->
      fall
        (List.fold_left
           (fun p r ->
             let v, p = do_pop ctx p in
             if Reg.equal r Reg.ESP then p else setr p r v)
           p
           [ Reg.EDI; Reg.ESI; Reg.EBP; Reg.ESP; Reg.EBX; Reg.EDX; Reg.ECX; Reg.EAX ])
  | Insn.Pushfd ->
      (* flags_word always has bit 1 set and fits in 12 bits *)
      fall (do_push ctx p (V.range 2L 0xFC7L))
  | Insn.Popfd ->
      let v, p = do_pop ctx p in
      let df =
        match V.is_const v with
        | Some c -> Some (Int32.to_int c land 0x400 <> 0)
        | None -> None
      in
      fall { p with df }
  | Insn.Jmp_rel disp -> at p (jrel disp)
  | Insn.Jcc_rel (_, disp) ->
      (* no flags in the domain: always fork both directions *)
      at p (jrel disp) @ fall p
  | Insn.Call_rel disp ->
      (* the GetPC idiom: the pushed return address is a constant *)
      let p = do_push ctx p (V.const next32) in
      at p (jrel disp)
  | Insn.Loop disp -> (
      let ecx = V.add_wrapped (getr p Reg.ECX) (-1l) in
      match V.is_const ecx with
      | Some 0l -> fall (setr p Reg.ECX ecx)
      | Some _ -> at (setr p Reg.ECX ecx) (jrel disp)
      | None ->
          if not (V.contains ecx 0l) then at (setr p Reg.ECX ecx) (jrel disp)
          else
            let taken =
              let refined = V.without ecx 0l in
              if V.is_bot refined then [] else at (setr p Reg.ECX refined) (jrel disp)
            in
            taken @ fall (setr p Reg.ECX (V.const 0l)))
  | Insn.Loope disp | Insn.Loopne disp -> (
      let ecx = V.add_wrapped (getr p Reg.ECX) (-1l) in
      let p = setr p Reg.ECX ecx in
      (* zf is unknown: fall-through is possible whenever the loop
         reaches here; the taken edge additionally needs ecx <> 0 *)
      match V.is_const ecx with
      | Some 0l -> fall p
      | _ ->
          let taken =
            let refined = V.without ecx 0l in
            if V.is_bot refined then [] else at (setr p Reg.ECX refined) (jrel disp)
          in
          taken @ fall p)
  | Insn.Jecxz disp -> (
      let ecx = getr p Reg.ECX in
      match V.is_const ecx with
      | Some 0l -> at p (jrel disp)
      | Some _ -> fall p
      | None ->
          let taken =
            if V.contains ecx 0l then at (setr p Reg.ECX (V.const 0l)) (jrel disp) else []
          in
          let fallthrough =
            let refined = V.without ecx 0l in
            if V.is_bot refined then [] else fall (setr p Reg.ECX refined)
          in
          taken @ fallthrough)
  | Insn.Ret -> (
      let v, p = do_pop ctx p in
      match V.is_const v with
      | Some addr -> at p (Int32.to_int (Int32.sub addr Emulator.code_base))
      | None -> raise Bail)
  | Insn.Int 0x80 ->
      let nr = V.low_byte (getr p Reg.EAX) in
      let may_execve = V.contains nr 11l in
      let may_socket =
        V.contains nr 102l
        &&
        let ebx = getr p Reg.EBX in
        let rec any k = k <= 17 && (V.contains ebx (Int32.of_int k) || any (k + 1)) in
        any 1
      in
      if may_execve || may_socket then raise Bail
      else if p.syscalls + 1 >= ctx.cfg.max_syscalls then
        refute "%d syscalls without execve or socketcall" (p.syscalls + 1)
      else fall { (setr p Reg.EAX (V.const 3l)) with syscalls = p.syscalls + 1 }
  | Insn.Int n -> refute "interrupt 0x%x is not a linux syscall" n
  | Insn.Int3 -> refute "int3"
  | Insn.Nop | Insn.Fwait -> fall p
  | Insn.Clc | Insn.Stc | Insn.Cmc | Insn.Sahf -> fall p
  | Insn.Lahf -> fall (reg8_set p Reg.AH (V.range 2L 0xC7L))
  | Insn.Cld -> fall { p with df = Some false }
  | Insn.Std -> fall { p with df = Some true }
  | Insn.Lodsb -> fall (lods ctx p 1)
  | Insn.Lodsd -> fall (lods ctx p 4)
  | Insn.Stosb -> fall (stos ctx p 1)
  | Insn.Stosd -> fall (stos ctx p 4)
  | Insn.Movsb -> fall (movs ctx p 1)
  | Insn.Movsd -> fall (movs ctx p 4)
  | Insn.Scasb ->
      let edi = getr p Reg.EDI in
      let _ = mem_read ctx p edi 1 in
      fall (setr p Reg.EDI (advanced p edi 1))
  | Insn.Cmpsb ->
      let esi = getr p Reg.ESI and edi = getr p Reg.EDI in
      let _ = mem_read ctx p esi 1 in
      let _ = mem_read ctx p edi 1 in
      let p = setr p Reg.ESI (advanced p esi 1) in
      fall (setr p Reg.EDI (advanced p edi 1))
  | Insn.Cdq -> (
      let eax = getr p Reg.EAX in
      match V.bounds eax with
      | Some (_, hi) when Int64.compare hi 0x8000_0000L < 0 -> fall (setr p Reg.EDX (V.const 0l))
      | Some (lo, _) when Int64.compare lo 0x8000_0000L >= 0 ->
          fall (setr p Reg.EDX (V.const 0xFFFFFFFFl))
      | _ -> fall (setr p Reg.EDX (V.join (V.const 0l) (V.const 0xFFFFFFFFl))))
  | Insn.Cwde -> (
      let eax = getr p Reg.EAX in
      match V.is_const eax with
      | Some c ->
          let ax = Int32.to_int (Int32.logand c 0xFFFFl) in
          let v = if ax >= 0x8000 then ax - 0x10000 else ax in
          fall (setr p Reg.EAX (V.const (Int32.of_int v)))
      | None -> fall (setr p Reg.EAX (wide_top [ eax ])))
  | Insn.Rep_movsb | Insn.Rep_movsd | Insn.Rep_stosb | Insn.Rep_stosd -> (
      let width =
        match d.Decode.insn with Insn.Rep_movsd | Insn.Rep_stosd -> 4 | _ -> 1
      in
      let is_movs =
        match d.Decode.insn with Insn.Rep_movsb | Insn.Rep_movsd -> true | _ -> false
      in
      let ecx = getr p Reg.ECX in
      match V.is_const ecx with
      | Some 0l -> fall p
      | Some k32 ->
          let k = Int64.to_int (u64 k32) in
          if k > 4096 || p.df = None then raise Bail
          else
            let rec iter p i =
              if i >= k then p
              else
                let p = if is_movs then movs ctx p width else stos ctx p width in
                iter (setr p Reg.ECX (V.add_wrapped (getr p Reg.ECX) (-1l))) (i + 1)
            in
            fall (iter p 0)
      | None ->
          if not (V.contains ecx 0l) then begin
            (* at least one iteration on every concretization: if that
               first access must fault, the whole instruction refutes *)
            (if is_movs then
               match classify ctx (getr p Reg.ESI) width with
               | Outside -> refute "memory read faults"
               | _ -> ());
            match classify ctx (getr p Reg.EDI) width with
            | Outside -> refute "memory write faults"
            | _ -> raise Bail
          end
          else raise Bail)
  | Insn.Movzx (dst, src) ->
      fall (setr p dst (V.logand (read_operand ctx p Insn.S8bit src) (V.const 0xFFl)))
  | Insn.Movsx (dst, src) -> (
      let v = read_operand ctx p Insn.S8bit src in
      match V.is_const v with
      | Some c ->
          let b = Int32.to_int c land 0xFF in
          fall (setr p dst (V.const (Int32.of_int (if b >= 0x80 then b - 0x100 else b))))
      | None -> fall (setr p dst (wide_top [ v ])))
  | Insn.Mul (sz, rm) | Insn.Imul (sz, rm) -> (
      let signed = match d.Decode.insn with Insn.Imul _ -> true | _ -> false in
      match sz with
      | Insn.S8bit -> (
          let bv = read_operand ctx p Insn.S8bit rm in
          let eax = getr p Reg.EAX in
          match (V.is_const eax, V.is_const bv) with
          | Some eaxc, Some bc ->
              let a = Int32.to_int eaxc land 0xFF in
              let b = Int32.to_int bc land 0xFF in
              let sx v = if signed && v >= 0x80 then v - 0x100 else v in
              let full = sx a * sx b in
              fall
                (setr p Reg.EAX
                   (V.const
                      (Int32.logor
                         (Int32.logand eaxc 0xFFFF0000l)
                         (Int32.of_int (full land 0xFFFF)))))
          | _ ->
              fall
                (setr p Reg.EAX
                   (V.logor (V.logand eax (V.const 0xFFFF0000l)) (V.range 0L 0xFFFFL))))
      | Insn.S32bit -> (
          let bv = read_operand ctx p Insn.S32bit rm in
          let eax = getr p Reg.EAX in
          match (V.is_const eax, V.is_const bv) with
          | Some a, Some b ->
              let wide v =
                if signed then Int64.of_int32 v else Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
              in
              let product = Int64.mul (wide a) (wide b) in
              let p = setr p Reg.EAX (V.const (Int64.to_int32 product)) in
              fall (setr p Reg.EDX (V.const (Int64.to_int32 (Int64.shift_right_logical product 32))))
          | _ ->
              let t = wide_top [ eax; bv ] in
              fall (setr (setr p Reg.EAX t) Reg.EDX t)))
  | Insn.Div (sz, rm) | Insn.Idiv (sz, rm) -> (
      let signed = match d.Decode.insn with Insn.Idiv _ -> true | _ -> false in
      let raw = read_operand ctx p sz rm in
      (match V.is_const raw with
      | Some c ->
          let z =
            match sz with
            | Insn.S8bit -> Int32.to_int c land 0xFF = 0
            | Insn.S32bit -> Int32.equal c 0l
          in
          if z then refute "divide error"
      | None -> ());
      (* a non-constant divisor containing 0 is fine to continue past:
         the zero concretizations refute right here on their own *)
      match sz with
      | Insn.S8bit -> (
          let eax = getr p Reg.EAX in
          match (V.is_const eax, V.is_const raw) with
          | Some eaxc, Some bc ->
              let divisor =
                let v = Int32.to_int bc land 0xFF in
                if signed && v >= 0x80 then v - 0x100 else v
              in
              let ax = Int32.to_int (Int32.logand eaxc 0xFFFFl) in
              let ax = if signed && ax >= 0x8000 then ax - 0x10000 else ax in
              let q = ax / divisor and r = ax mod divisor in
              fall
                (reg8_set
                   (reg8_set p Reg.AL (V.const (Int32.of_int (q land 0xFF))))
                   Reg.AH
                   (V.const (Int32.of_int (r land 0xFF))))
          | _ ->
              let b = byte_unknown [ eax; raw ] in
              fall (reg8_set (reg8_set p Reg.AL b) Reg.AH b))
      | Insn.S32bit -> (
          let eax = getr p Reg.EAX and edx = getr p Reg.EDX in
          match (V.is_const eax, V.is_const edx, V.is_const raw) with
          | Some a, Some dx, Some b ->
              let divisor =
                if signed then Int64.of_int32 b else Int64.logand (Int64.of_int32 b) 0xFFFFFFFFL
              in
              let dividend =
                Int64.logor
                  (Int64.shift_left (Int64.logand (Int64.of_int32 dx) 0xFFFFFFFFL) 32)
                  (Int64.logand (Int64.of_int32 a) 0xFFFFFFFFL)
              in
              let q, r =
                if signed then (Int64.div dividend divisor, Int64.rem dividend divisor)
                else (Int64.unsigned_div dividend divisor, Int64.unsigned_rem dividend divisor)
              in
              let p = setr p Reg.EAX (V.const (Int64.to_int32 q)) in
              fall (setr p Reg.EDX (V.const (Int64.to_int32 r)))
          | _ ->
              let t = wide_top [ eax; edx; raw ] in
              fall (setr (setr p Reg.EAX t) Reg.EDX t)))
  | Insn.Imul2 (dst, rm) -> (
      let bv = read_operand ctx p Insn.S32bit rm in
      let dv = getr p dst in
      match (V.is_const dv, V.is_const bv) with
      | Some a, Some b ->
          fall (setr p dst (V.const (Int64.to_int32 (Int64.mul (Int64.of_int32 a) (Int64.of_int32 b)))))
      | _ -> fall (setr p dst (wide_top [ dv; bv ])))
  | Insn.Imul3 (dst, rm, imm) -> (
      let bv = read_operand ctx p Insn.S32bit rm in
      match V.is_const bv with
      | Some b ->
          fall
            (setr p dst (V.const (Int64.to_int32 (Int64.mul (Int64.of_int32 b) (Int64.of_int32 imm)))))
      | None -> fall (setr p dst (wide_top [ bv ])))
  | Insn.Bad b -> refute "undecodable byte 0x%02x" b

(* ------------------------------------------------------------------ *)
(* fetch: materialise the emulator's 16-byte window from overlay plus
   pristine image, and only trust the decode when it consumed exactly
   known bytes *)

let fetch ctx p =
  if p.eip < 0 || p.eip >= ctx.arena then refute "unmapped eip at offset 0x%x" p.eip;
  let avail = min 16 (ctx.arena - p.eip) in
  let buf = Bytes.make avail '\x00' in
  let precise = ref avail in
  for i = avail - 1 downto 0 do
    match V.is_const (byte_at ctx p (p.eip + i)) with
    | Some c -> Bytes.set buf i (Char.chr (Int32.to_int c land 0xFF))
    | None -> precise := i
  done;
  match Decode.at (Bytes.to_string buf) 0 with
  | None -> if !precise = avail then refute "fetch past end" else raise Bail
  | Some d -> if d.Decode.len <= !precise then d else raise Bail

(* ------------------------------------------------------------------ *)
(* driver *)

let max_forks = 64
let max_gas = 200_000

let initial_path ctx entry =
  let regs = Array.make 8 (V.const 0l) in
  regs.(Reg.code Reg.ESP) <-
    V.const (Int32.add Emulator.code_base (Int32.of_int (ctx.arena - 16)));
  { regs; eip = entry; df = Some false; steps = 0; syscalls = 0; overlay = Imap.empty; distinct = 0 }

let run ?(config = Confirm.default_config) ~code ~entry () =
  let len = String.length code in
  if len = 0 || entry < 0 || entry >= len || len > config.arena_size - 4096 then
    (* Confirm.run answers [Inconclusive (Fault _)] here without running
       the emulator; never claim a refutation *)
    None
  else begin
    let ctx = { code; len; arena = config.arena_size; cfg = config } in
    let gas = ref max_gas in
    let forks = ref 0 in
    let first_reason = ref None in
    let refuted_paths = ref 0 in
    let pending = ref [ initial_path ctx entry ] in
    let rec explore p =
      (* mirror of the confirmer's loop head, in the same order *)
      if p.distinct >= ctx.cfg.min_written && Imap.mem p.eip p.overlay then
        raise Bail (* the concrete run would confirm decryption *)
      else if p.steps >= ctx.cfg.max_steps then raise Bail (* would be Inconclusive Budget *)
      else begin
        decr gas;
        if !gas <= 0 then raise Bail;
        let d = fetch ctx p in
        match step_insn ctx p d with
        | [] -> () (* every branch direction infeasible: no concretization *)
        | [ p' ] -> explore p'
        | p' :: rest ->
            incr forks;
            if !forks > max_forks then raise Bail;
            pending := rest @ !pending;
            explore p'
      end
    in
    try
      let rec drain () =
        match !pending with
        | [] -> ()
        | p :: rest ->
            pending := rest;
            (try explore p
             with Refuted_path r ->
               incr refuted_paths;
               if !first_reason = None then first_reason := Some r);
            drain ()
      in
      drain ();
      match !first_reason with
      | Some r ->
          Some
            (if !refuted_paths = 1 then r
             else Printf.sprintf "%s (and %d more abstract paths)" r (!refuted_paths - 1))
      | None -> None
    with Bail -> None
  end
