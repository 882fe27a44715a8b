type t = {
  arena : Bytes.t;
  regs : int32 array;
  mutable eip : int32;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ov : bool;  (* overflow flag; [of] is a keyword *)
  mutable pf : bool;
  mutable df : bool;
  mutable steps : int;
  written : Bytes.t;  (* one bit per arena byte the guest has stored *)
  mutable written_count : int;
}

type outcome = Running | Syscall of int | Halted of string

let code_base = 0x08048000l

let default_arena_size = 1 lsl 18
let code_limit ~arena_size = arena_size - 4096
let initial_esp ~arena_size = Int32.add code_base (Int32.of_int (arena_size - 16))

let create ?(arena_size = default_arena_size) ~code () =
  if String.length code > code_limit ~arena_size then
    invalid_arg "Emulator.create: code larger than arena";
  let arena = Bytes.make arena_size '\x00' in
  Bytes.blit_string code 0 arena 0 (String.length code);
  let t =
    {
      arena;
      regs = Array.make 8 0l;
      eip = code_base;
      zf = false;
      sf = false;
      cf = false;
      ov = false;
      pf = false;
      df = false;
      steps = 0;
      written = Bytes.make ((arena_size + 7) / 8) '\000';
      written_count = 0;
    }
  in
  t.regs.(Reg.code Reg.ESP) <- initial_esp ~arena_size;
  t

let reg t r = t.regs.(Reg.code r)
let set_reg t r v = t.regs.(Reg.code r) <- v
let eip t = t.eip
let set_eip t v = t.eip <- v
let flag_zf t = t.zf
let flag_sf t = t.sf
let flag_cf t = t.cf
let steps_taken t = t.steps
let written_count t = t.written_count

exception Fault of string

let translate t addr =
  let off = Int32.to_int (Int32.sub addr code_base) in
  if off < 0 || off >= Bytes.length t.arena then
    raise (Fault (Printf.sprintf "unmapped address 0x%lx" addr))
  else off

let read8 t addr = Char.code (Bytes.get t.arena (translate t addr))

(* a guest store: logged in the written bitmap *)
let write8 t addr v =
  let off = translate t addr in
  Bytes.set t.arena off (Char.chr (v land 0xFF));
  let byte = off lsr 3 and bit = 1 lsl (off land 7) in
  let prev = Char.code (Bytes.get t.written byte) in
  if prev land bit = 0 then begin
    Bytes.set t.written byte (Char.chr (prev lor bit));
    t.written_count <- t.written_count + 1
  end

let read32 t addr =
  let b i = Int32.of_int (read8 t (Int32.add addr (Int32.of_int i))) in
  Int32.logor (b 0)
    (Int32.logor
       (Int32.shift_left (b 1) 8)
       (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

let write32 t addr v =
  let b i shift = write8 t (Int32.add addr (Int32.of_int i)) (Int32.to_int (Int32.shift_right_logical v shift) land 0xFF) in
  b 0 0;
  b 1 8;
  b 2 16;
  b 3 24

let read_mem t addr n =
  String.init n (fun i -> Char.chr (read8 t (Int32.add addr (Int32.of_int i))))

(* Non-raising variants (the never-raising-constructor convention): a
   range check up front instead of a per-byte fault, because the
   raising accessors' partial-write-then-raise behaviour is exactly
   what callers kept having to defend against. *)
let in_arena t addr n =
  let off = Int32.to_int (Int32.sub addr code_base) in
  n >= 0 && off >= 0 && off <= Bytes.length t.arena - n

let read_mem_opt t addr n =
  if in_arena t addr n then Some (read_mem t addr n) else None

(* host-side seeding: not a guest store, so not logged *)
let write_mem_opt t addr s =
  if in_arena t addr (String.length s) then begin
    Bytes.blit_string s 0 t.arena (Int32.to_int (Int32.sub addr code_base)) (String.length s);
    Some ()
  end
  else None

let was_written t addr =
  let off = Int32.to_int (Int32.sub addr code_base) in
  in_arena t addr 1 && Char.code (Bytes.get t.written (off lsr 3)) land (1 lsl (off land 7)) <> 0

(* ------------------------------------------------------------------ *)
(* operand helpers *)

let scale_int = function Insn.S1 -> 1l | Insn.S2 -> 2l | Insn.S4 -> 4l | Insn.S8 -> 8l

let effective_address t (m : Insn.mem) =
  let base = match m.Insn.base with Some b -> reg t b | None -> 0l in
  let index =
    match m.Insn.index with
    | Some (r, sc) -> Int32.mul (reg t r) (scale_int sc)
    | None -> 0l
  in
  Int32.add (Int32.add base index) m.Insn.disp

let reg8_get t (r : Reg.r8) =
  let parent = reg t (Reg.parent8 r) in
  let shift = match r with Reg.AH | Reg.CH | Reg.DH | Reg.BH -> 8 | _ -> 0 in
  Int32.to_int (Int32.shift_right_logical parent shift) land 0xFF

let reg8_set t (r : Reg.r8) v =
  let p = Reg.parent8 r in
  let old = reg t p in
  let shift = match r with Reg.AH | Reg.CH | Reg.DH | Reg.BH -> 8 | _ -> 0 in
  let mask = Int32.lognot (Int32.shift_left 0xFFl shift) in
  set_reg t p
    (Int32.logor (Int32.logand old mask)
       (Int32.shift_left (Int32.of_int (v land 0xFF)) shift))

(* value of an operand at a given access width; 8-bit values live in the
   low 8 bits of the result *)
let read_operand t (sz : Insn.size) (o : Insn.operand) =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> reg t r
  | Insn.Reg8 r, Insn.S8bit -> Int32.of_int (reg8_get t r)
  | Insn.Imm v, Insn.S32bit -> v
  | Insn.Imm v, Insn.S8bit -> Int32.logand v 0xFFl
  | Insn.Mem m, Insn.S32bit -> read32 t (effective_address t m)
  | Insn.Mem m, Insn.S8bit -> Int32.of_int (read8 t (effective_address t m))
  | Insn.Reg _, Insn.S8bit | Insn.Reg8 _, Insn.S32bit ->
      raise (Fault "operand width mismatch")

let write_operand t (sz : Insn.size) (o : Insn.operand) v =
  match (o, sz) with
  | Insn.Reg r, Insn.S32bit -> set_reg t r v
  | Insn.Reg8 r, Insn.S8bit -> reg8_set t r (Int32.to_int v land 0xFF)
  | Insn.Mem m, Insn.S32bit -> write32 t (effective_address t m) v
  | Insn.Mem m, Insn.S8bit -> write8 t (effective_address t m) (Int32.to_int v land 0xFF)
  | Insn.Imm _, _ -> raise (Fault "write to immediate")
  | Insn.Reg _, Insn.S8bit | Insn.Reg8 _, Insn.S32bit ->
      raise (Fault "operand width mismatch")

(* ------------------------------------------------------------------ *)
(* flags *)

let parity8 v =
  let v = v land 0xFF in
  let rec bits acc v = if v = 0 then acc else bits (acc + (v land 1)) (v lsr 1) in
  bits 0 v mod 2 = 0

let width_bits = function Insn.S8bit -> 8 | Insn.S32bit -> 32

let truncate sz v =
  match sz with Insn.S8bit -> Int32.logand v 0xFFl | Insn.S32bit -> v

let sign_bit sz v =
  let bit = width_bits sz - 1 in
  Int32.logand (Int32.shift_right_logical v bit) 1l = 1l

let set_szp t sz result =
  let r = truncate sz result in
  t.zf <- Int32.equal r 0l;
  t.sf <- sign_bit sz r;
  t.pf <- parity8 (Int32.to_int r)

let do_add t sz a b carry_in =
  let c = if carry_in then 1l else 0l in
  let result = truncate sz (Int32.add (Int32.add a b) c) in
  let wide =
    Int64.add
      (Int64.add
         (Int64.logand (Int64.of_int32 (truncate sz a)) 0xFFFFFFFFL)
         (Int64.logand (Int64.of_int32 (truncate sz b)) 0xFFFFFFFFL))
      (Int64.of_int32 c)
  in
  let limit = match sz with Insn.S8bit -> 0xFFL | Insn.S32bit -> 0xFFFFFFFFL in
  t.cf <- Int64.unsigned_compare wide limit > 0;
  t.ov <- sign_bit sz a = sign_bit sz b && sign_bit sz result <> sign_bit sz a;
  set_szp t sz result;
  result

let do_sub t sz a b borrow_in =
  let c = if borrow_in then 1l else 0l in
  let result = truncate sz (Int32.sub (Int32.sub a b) c) in
  (* borrow out of the width, computed wide: the masked-compare form
     mishandles an all-ones subtrahend in a borrow chain at 8 bits *)
  let mask v =
    match sz with
    | Insn.S8bit -> Int64.of_int32 (Int32.logand v 0xFFl)
    | Insn.S32bit -> Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
  in
  let wide = Int64.sub (mask a) (Int64.add (mask b) (Int64.of_int32 c)) in
  t.cf <- Int64.compare wide 0L < 0;
  t.ov <- sign_bit sz a <> sign_bit sz b && sign_bit sz result <> sign_bit sz a;
  set_szp t sz result;
  result

let do_logic t sz result =
  let r = truncate sz result in
  t.cf <- false;
  t.ov <- false;
  set_szp t sz r;
  r

let cond t (cc : Insn.cc) =
  match cc with
  | Insn.O -> t.ov
  | Insn.NO -> not t.ov
  | Insn.B -> t.cf
  | Insn.AE -> not t.cf
  | Insn.E -> t.zf
  | Insn.NE -> not t.zf
  | Insn.BE -> t.cf || t.zf
  | Insn.A -> not (t.cf || t.zf)
  | Insn.S -> t.sf
  | Insn.NS -> not t.sf
  | Insn.P -> t.pf
  | Insn.NP -> not t.pf
  | Insn.L -> t.sf <> t.ov
  | Insn.GE -> t.sf = t.ov
  | Insn.LE -> t.zf || t.sf <> t.ov
  | Insn.G -> (not t.zf) && t.sf = t.ov

let flags_word t =
  2 (* reserved bit 1 always reads as set *)
  lor (if t.cf then 1 else 0)
  lor (if t.pf then 4 else 0)
  lor (if t.zf then 64 else 0)
  lor (if t.sf then 128 else 0)
  lor (if t.df then 0x400 else 0)
  lor if t.ov then 0x800 else 0

let set_flags_word t w =
  t.cf <- w land 1 <> 0;
  t.pf <- w land 4 <> 0;
  t.zf <- w land 64 <> 0;
  t.sf <- w land 128 <> 0;
  t.df <- w land 0x400 <> 0;
  t.ov <- w land 0x800 <> 0

(* ------------------------------------------------------------------ *)
(* stack *)

let push t v =
  let esp = Int32.sub (reg t Reg.ESP) 4l in
  set_reg t Reg.ESP esp;
  write32 t esp v

let pop t =
  let esp = reg t Reg.ESP in
  let v = read32 t esp in
  set_reg t Reg.ESP (Int32.add esp 4l);
  v

(* ------------------------------------------------------------------ *)
(* string ops *)

let dir_delta t n = if t.df then Int32.of_int (-n) else Int32.of_int n

let lods t n =
  let esi = reg t Reg.ESI in
  let v = if n = 1 then Int32.of_int (read8 t esi) else read32 t esi in
  (if n = 1 then reg8_set t Reg.AL (Int32.to_int v) else set_reg t Reg.EAX v);
  set_reg t Reg.ESI (Int32.add esi (dir_delta t n))

let stos t n =
  let edi = reg t Reg.EDI in
  (if n = 1 then write8 t edi (reg8_get t Reg.AL) else write32 t edi (reg t Reg.EAX));
  set_reg t Reg.EDI (Int32.add edi (dir_delta t n))

let movs t n =
  let esi = reg t Reg.ESI and edi = reg t Reg.EDI in
  (if n = 1 then write8 t edi (read8 t esi) else write32 t edi (read32 t esi));
  set_reg t Reg.ESI (Int32.add esi (dir_delta t n));
  set_reg t Reg.EDI (Int32.add edi (dir_delta t n))

(* ------------------------------------------------------------------ *)
(* shifts and rotates *)

let do_shift t (op : Insn.shift) sz value count =
  let bits = width_bits sz in
  let n = count land 31 in
  if n = 0 then value
  else
    let v = truncate sz value in
    match op with
    | Insn.Shl ->
        let r = truncate sz (Int32.shift_left v n) in
        t.cf <-
          n <= bits
          && Int32.logand (Int32.shift_right_logical v (bits - n)) 1l = 1l;
        set_szp t sz r;
        r
    | Insn.Shr ->
        let r = Int32.shift_right_logical v n in
        t.cf <- n <= bits && Int32.logand (Int32.shift_right_logical v (n - 1)) 1l = 1l;
        set_szp t sz r;
        r
    | Insn.Sar ->
        let signed =
          match sz with
          | Insn.S32bit -> v
          | Insn.S8bit ->
              if sign_bit sz v then Int32.logor v 0xFFFFFF00l else v
        in
        let r = truncate sz (Int32.shift_right signed n) in
        (* last bit shifted out of the sign-extended value: an arithmetic
           shift keeps supplying sign bits past the operand width *)
        t.cf <- Int32.logand (Int32.shift_right signed (n - 1)) 1l = 1l;
        set_szp t sz r;
        r
    | Insn.Rol ->
        let n = n mod bits in
        if n = 0 then v
        else
          let r =
            truncate sz
              (Int32.logor (Int32.shift_left v n)
                 (Int32.shift_right_logical v (bits - n)))
          in
          t.cf <- Int32.logand r 1l = 1l;
          r
    | Insn.Ror ->
        let n = n mod bits in
        if n = 0 then v
        else
          let r =
            truncate sz
              (Int32.logor
                 (Int32.shift_right_logical v n)
                 (Int32.shift_left v (bits - n)))
          in
          t.cf <- sign_bit sz r;
          r

(* ------------------------------------------------------------------ *)

let fetch_window = 16

let step t : outcome =
  t.steps <- t.steps + 1;
  match
    let off = translate t t.eip in
    let avail = min fetch_window (Bytes.length t.arena - off) in
    let window = Bytes.sub_string t.arena off avail in
    match Decode.at window 0 with
    | None -> raise (Fault "fetch past end")
    | Some d -> d
  with
  | exception Fault m -> Halted m
  | d -> (
      let next = Int32.add t.eip (Int32.of_int d.Decode.len) in
      let jump_rel disp = Int32.add next (Int32.of_int disp) in
      try
        match d.Decode.insn with
        | Insn.Mov (sz, dst, src) ->
            write_operand t sz dst (read_operand t sz src);
            t.eip <- next;
            Running
        | Insn.Arith (op, sz, dst, src) ->
            let a = read_operand t sz dst in
            let b = read_operand t sz src in
            (match op with
            | Insn.Add -> write_operand t sz dst (do_add t sz a b false)
            | Insn.Adc -> write_operand t sz dst (do_add t sz a b t.cf)
            | Insn.Sub -> write_operand t sz dst (do_sub t sz a b false)
            | Insn.Sbb -> write_operand t sz dst (do_sub t sz a b t.cf)
            | Insn.Cmp -> ignore (do_sub t sz a b false)
            | Insn.And -> write_operand t sz dst (do_logic t sz (Int32.logand a b))
            | Insn.Or -> write_operand t sz dst (do_logic t sz (Int32.logor a b))
            | Insn.Xor -> write_operand t sz dst (do_logic t sz (Int32.logxor a b)));
            t.eip <- next;
            Running
        | Insn.Test (sz, a, b) ->
            ignore
              (do_logic t sz (Int32.logand (read_operand t sz a) (read_operand t sz b)));
            t.eip <- next;
            Running
        | Insn.Not (sz, o) ->
            write_operand t sz o (truncate sz (Int32.lognot (read_operand t sz o)));
            t.eip <- next;
            Running
        | Insn.Neg (sz, o) ->
            let v = read_operand t sz o in
            let r = do_sub t sz 0l v false in
            t.cf <- not (Int32.equal (truncate sz v) 0l);
            write_operand t sz o r;
            t.eip <- next;
            Running
        | Insn.Inc (sz, o) ->
            let saved_cf = t.cf in
            let r = do_add t sz (read_operand t sz o) 1l false in
            t.cf <- saved_cf;
            write_operand t sz o r;
            t.eip <- next;
            Running
        | Insn.Dec (sz, o) ->
            let saved_cf = t.cf in
            let r = do_sub t sz (read_operand t sz o) 1l false in
            t.cf <- saved_cf;
            write_operand t sz o r;
            t.eip <- next;
            Running
        | Insn.Shift (op, sz, o, n) ->
            write_operand t sz o (do_shift t op sz (read_operand t sz o) n);
            t.eip <- next;
            Running
        | Insn.Lea (r, m) ->
            set_reg t r (effective_address t m);
            t.eip <- next;
            Running
        | Insn.Xchg (a, b) ->
            let va = reg t a and vb = reg t b in
            set_reg t a vb;
            set_reg t b va;
            t.eip <- next;
            Running
        | Insn.Push_reg r ->
            push t (reg t r);
            t.eip <- next;
            Running
        | Insn.Pop_reg r ->
            set_reg t r (pop t);
            t.eip <- next;
            Running
        | Insn.Push_imm v ->
            push t v;
            t.eip <- next;
            Running
        | Insn.Pushad ->
            let esp0 = reg t Reg.ESP in
            List.iter
              (fun r -> push t (if Reg.equal r Reg.ESP then esp0 else reg t r))
              [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.EBX; Reg.ESP; Reg.EBP; Reg.ESI; Reg.EDI ];
            t.eip <- next;
            Running
        | Insn.Popad ->
            List.iter
              (fun r ->
                let v = pop t in
                if not (Reg.equal r Reg.ESP) then set_reg t r v)
              [ Reg.EDI; Reg.ESI; Reg.EBP; Reg.ESP; Reg.EBX; Reg.EDX; Reg.ECX; Reg.EAX ];
            t.eip <- next;
            Running
        | Insn.Pushfd ->
            push t (Int32.of_int (flags_word t));
            t.eip <- next;
            Running
        | Insn.Popfd ->
            set_flags_word t (Int32.to_int (pop t) land 0xFFFF);
            t.eip <- next;
            Running
        | Insn.Jmp_rel disp ->
            t.eip <- jump_rel disp;
            Running
        | Insn.Jcc_rel (cc, disp) ->
            t.eip <- (if cond t cc then jump_rel disp else next);
            Running
        | Insn.Call_rel disp ->
            push t next;
            t.eip <- jump_rel disp;
            Running
        | Insn.Loop disp ->
            let ecx = Int32.sub (reg t Reg.ECX) 1l in
            set_reg t Reg.ECX ecx;
            t.eip <- (if not (Int32.equal ecx 0l) then jump_rel disp else next);
            Running
        | Insn.Loope disp ->
            let ecx = Int32.sub (reg t Reg.ECX) 1l in
            set_reg t Reg.ECX ecx;
            t.eip <-
              (if (not (Int32.equal ecx 0l)) && t.zf then jump_rel disp else next);
            Running
        | Insn.Loopne disp ->
            let ecx = Int32.sub (reg t Reg.ECX) 1l in
            set_reg t Reg.ECX ecx;
            t.eip <-
              (if (not (Int32.equal ecx 0l)) && not t.zf then jump_rel disp else next);
            Running
        | Insn.Jecxz disp ->
            t.eip <- (if Int32.equal (reg t Reg.ECX) 0l then jump_rel disp else next);
            Running
        | Insn.Ret ->
            t.eip <- pop t;
            Running
        | Insn.Int n ->
            t.eip <- next;
            Syscall n
        | Insn.Int3 -> Halted "int3"
        | Insn.Nop ->
            t.eip <- next;
            Running
        | Insn.Cld ->
            t.df <- false;
            t.eip <- next;
            Running
        | Insn.Std ->
            t.df <- true;
            t.eip <- next;
            Running
        | Insn.Lodsb ->
            lods t 1;
            t.eip <- next;
            Running
        | Insn.Lodsd ->
            lods t 4;
            t.eip <- next;
            Running
        | Insn.Stosb ->
            stos t 1;
            t.eip <- next;
            Running
        | Insn.Stosd ->
            stos t 4;
            t.eip <- next;
            Running
        | Insn.Movsb ->
            movs t 1;
            t.eip <- next;
            Running
        | Insn.Movsd ->
            movs t 4;
            t.eip <- next;
            Running
        | Insn.Scasb ->
            let edi = reg t Reg.EDI in
            ignore
              (do_sub t Insn.S8bit
                 (Int32.of_int (reg8_get t Reg.AL))
                 (Int32.of_int (read8 t edi))
                 false);
            set_reg t Reg.EDI (Int32.add edi (dir_delta t 1));
            t.eip <- next;
            Running
        | Insn.Cmpsb ->
            let esi = reg t Reg.ESI and edi = reg t Reg.EDI in
            ignore
              (do_sub t Insn.S8bit
                 (Int32.of_int (read8 t esi))
                 (Int32.of_int (read8 t edi))
                 false);
            set_reg t Reg.ESI (Int32.add esi (dir_delta t 1));
            set_reg t Reg.EDI (Int32.add edi (dir_delta t 1));
            t.eip <- next;
            Running
        | Insn.Cdq ->
            set_reg t Reg.EDX
              (if Int32.compare (reg t Reg.EAX) 0l < 0 then 0xFFFFFFFFl else 0l);
            t.eip <- next;
            Running
        | Insn.Cwde ->
            let ax = Int32.to_int (Int32.logand (reg t Reg.EAX) 0xFFFFl) in
            let v = if ax >= 0x8000 then ax - 0x10000 else ax in
            set_reg t Reg.EAX (Int32.of_int v);
            t.eip <- next;
            Running
        | Insn.Clc ->
            t.cf <- false;
            t.eip <- next;
            Running
        | Insn.Stc ->
            t.cf <- true;
            t.eip <- next;
            Running
        | Insn.Cmc ->
            t.cf <- not t.cf;
            t.eip <- next;
            Running
        | Insn.Sahf ->
            let ah = reg8_get t Reg.AH in
            t.cf <- ah land 1 <> 0;
            t.pf <- ah land 4 <> 0;
            t.zf <- ah land 64 <> 0;
            t.sf <- ah land 128 <> 0;
            t.eip <- next;
            Running
        | Insn.Lahf ->
            reg8_set t Reg.AH (flags_word t land 0xFF);
            t.eip <- next;
            Running
        | Insn.Fwait ->
            t.eip <- next;
            Running
        | Insn.Rep_movsb | Insn.Rep_movsd ->
            let width = match d.Decode.insn with Insn.Rep_movsd -> 4 | _ -> 1 in
            while not (Int32.equal (reg t Reg.ECX) 0l) do
              movs t width;
              set_reg t Reg.ECX (Int32.sub (reg t Reg.ECX) 1l)
            done;
            t.eip <- next;
            Running
        | Insn.Rep_stosb | Insn.Rep_stosd ->
            let width = match d.Decode.insn with Insn.Rep_stosd -> 4 | _ -> 1 in
            while not (Int32.equal (reg t Reg.ECX) 0l) do
              stos t width;
              set_reg t Reg.ECX (Int32.sub (reg t Reg.ECX) 1l)
            done;
            t.eip <- next;
            Running
        | Insn.Movzx (dst, src) ->
            set_reg t dst (Int32.logand (read_operand t Insn.S8bit src) 0xFFl);
            t.eip <- next;
            Running
        | Insn.Movsx (dst, src) ->
            let b = Int32.to_int (read_operand t Insn.S8bit src) land 0xFF in
            set_reg t dst (Int32.of_int (if b >= 0x80 then b - 0x100 else b));
            t.eip <- next;
            Running
        | Insn.Mul (sz, rm) | Insn.Imul (sz, rm) -> (
            let signed = match d.Decode.insn with Insn.Imul _ -> true | _ -> false in
            (* CF = OF = the high half is significant (non-zero for MUL,
               not a sign extension of the low half for IMUL) *)
            match sz with
            | Insn.S8bit ->
                let a = reg8_get t Reg.AL in
                let b = Int32.to_int (read_operand t Insn.S8bit rm) land 0xFF in
                let sx v = if signed && v >= 0x80 then v - 0x100 else v in
                let full = sx a * sx b in
                (* AX = product *)
                set_reg t Reg.EAX
                  (Int32.logor
                     (Int32.logand (reg t Reg.EAX) 0xFFFF0000l)
                     (Int32.of_int (full land 0xFFFF)));
                let significant =
                  if signed then full < -0x80 || full > 0x7F else full > 0xFF
                in
                t.cf <- significant;
                t.ov <- significant;
                t.eip <- next;
                Running
            | Insn.S32bit ->
                let wide v =
                  if signed then Int64.of_int32 v
                  else Int64.logand (Int64.of_int32 v) 0xFFFFFFFFL
                in
                let product =
                  Int64.mul (wide (reg t Reg.EAX)) (wide (read_operand t Insn.S32bit rm))
                in
                set_reg t Reg.EAX (Int64.to_int32 product);
                set_reg t Reg.EDX (Int64.to_int32 (Int64.shift_right_logical product 32));
                let significant =
                  if signed then
                    not (Int64.equal product (Int64.of_int32 (Int64.to_int32 product)))
                  else not (Int64.equal (Int64.shift_right_logical product 32) 0L)
                in
                t.cf <- significant;
                t.ov <- significant;
                t.eip <- next;
                Running)
        | Insn.Div (sz, rm) | Insn.Idiv (sz, rm) -> (
            let signed = match d.Decode.insn with Insn.Idiv _ -> true | _ -> false in
            let divisor =
              match sz with
              | Insn.S8bit -> Int64.of_int (Int32.to_int (read_operand t Insn.S8bit rm) land 0xFF)
              | Insn.S32bit ->
                  if signed then Int64.of_int32 (read_operand t Insn.S32bit rm)
                  else Int64.logand (Int64.of_int32 (read_operand t Insn.S32bit rm)) 0xFFFFFFFFL
            in
            let divisor =
              if signed && sz = Insn.S8bit then
                let v = Int64.to_int divisor in
                Int64.of_int (if v >= 0x80 then v - 0x100 else v)
              else divisor
            in
            if Int64.equal divisor 0L then Halted "divide error"
            else
              match sz with
              | Insn.S8bit ->
                  let ax = Int32.to_int (Int32.logand (reg t Reg.EAX) 0xFFFFl) in
                  let ax = if signed && ax >= 0x8000 then ax - 0x10000 else ax in
                  let q = ax / Int64.to_int divisor and r = ax mod Int64.to_int divisor in
                  (* #DE when the quotient does not fit the destination *)
                  if (signed && (q < -0x80 || q > 0x7F)) || ((not signed) && q > 0xFF) then
                    Halted "divide error"
                  else begin
                    reg8_set t Reg.AL q;
                    reg8_set t Reg.AH r;
                    t.eip <- next;
                    Running
                  end
              | Insn.S32bit ->
                  let dividend =
                    Int64.logor
                      (Int64.shift_left
                         (Int64.logand (Int64.of_int32 (reg t Reg.EDX)) 0xFFFFFFFFL)
                         32)
                      (Int64.logand (Int64.of_int32 (reg t Reg.EAX)) 0xFFFFFFFFL)
                  in
                  let q, r =
                    if signed then (Int64.div dividend divisor, Int64.rem dividend divisor)
                    else (Int64.unsigned_div dividend divisor, Int64.unsigned_rem dividend divisor)
                  in
                  let fits =
                    if signed then Int64.equal q (Int64.of_int32 (Int64.to_int32 q))
                    else Int64.unsigned_compare q 0xFFFFFFFFL <= 0
                  in
                  if not fits then Halted "divide error"
                  else begin
                    set_reg t Reg.EAX (Int64.to_int32 q);
                    set_reg t Reg.EDX (Int64.to_int32 r);
                    t.eip <- next;
                    Running
                  end)
        | Insn.Imul2 (dst, rm) ->
            let wide =
              Int64.mul (Int64.of_int32 (reg t dst))
                (Int64.of_int32 (read_operand t Insn.S32bit rm))
            in
            let r = Int64.to_int32 wide in
            set_reg t dst r;
            let significant = not (Int64.equal wide (Int64.of_int32 r)) in
            t.cf <- significant;
            t.ov <- significant;
            t.eip <- next;
            Running
        | Insn.Imul3 (dst, rm, v) ->
            let wide =
              Int64.mul (Int64.of_int32 (read_operand t Insn.S32bit rm)) (Int64.of_int32 v)
            in
            let r = Int64.to_int32 wide in
            set_reg t dst r;
            let significant = not (Int64.equal wide (Int64.of_int32 r)) in
            t.cf <- significant;
            t.ov <- significant;
            t.eip <- next;
            Running
        | Insn.Bad b -> Halted (Printf.sprintf "undecodable byte 0x%02x" b)
      with Fault m -> Halted m)

let run ?(max_steps = 100_000) ?stop_at t =
  let rec go n =
    if n >= max_steps then (Running, n)
    else
      match stop_at with
      | Some a when Int32.equal t.eip a -> (Running, n)
      | Some _ | None -> (
          match step t with
          | Running -> go (n + 1)
          | (Syscall _ | Halted _) as o -> (o, n + 1))
  in
  go 0
