(* Emulator tests: instruction semantics, self-modifying code, and the
   two validation suites that tie the whole system together:

   - every polymorphic decoder the engines generate is EXECUTED and must
     reconstruct the original payload in memory, then run it to the
     execve syscall;
   - the abstract domain's constants are sound with respect to concrete
     execution. *)

open Sanids_x86
open Sanids_polymorph

let reg r = Insn.Reg r
let imm v = Insn.Imm v
let mov32 d s = Insn.Mov (Insn.S32bit, d, s)
let arith op d s = Insn.Arith (op, Insn.S32bit, d, s)

let run_program ?max_steps insns =
  let emu = Emulator.create ~code:(Encode.program insns) () in
  let outcome, _ = Emulator.run ?max_steps emu in
  (emu, outcome)

let read_mem emu addr n =
  match Emulator.read_mem_opt emu addr n with
  | Some s -> s
  | None -> Alcotest.failf "read of %d bytes at 0x%lx left the arena" n addr

let check_reg emu r expected =
  Alcotest.(check int32) (Reg.name r) expected (Emulator.reg emu r)

(* ------------------------------------------------------------------ *)
(* semantics goldens *)

let test_mov_and_arith () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EAX) (imm 5l);
        mov32 (reg Reg.EBX) (imm 7l);
        arith Insn.Add (reg Reg.EAX) (reg Reg.EBX);
        arith Insn.Sub (reg Reg.EBX) (imm 2l);
        arith Insn.Xor (reg Reg.ECX) (reg Reg.ECX);
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 12l;
  check_reg emu Reg.EBX 5l;
  check_reg emu Reg.ECX 0l

let test_flags_zero_sign () =
  let emu, _ =
    run_program [ mov32 (reg Reg.EAX) (imm 1l); arith Insn.Sub (reg Reg.EAX) (imm 1l); Insn.Int3 ]
  in
  Alcotest.(check bool) "zf" true (Emulator.flag_zf emu);
  let emu, _ =
    run_program [ mov32 (reg Reg.EAX) (imm 0l); arith Insn.Sub (reg Reg.EAX) (imm 1l); Insn.Int3 ]
  in
  Alcotest.(check bool) "sf" true (Emulator.flag_sf emu);
  Alcotest.(check bool) "cf borrow" true (Emulator.flag_cf emu);
  check_reg emu Reg.EAX 0xFFFFFFFFl

let test_carry_unsigned () =
  let emu, _ =
    run_program
      [ mov32 (reg Reg.EAX) (imm 0xFFFFFFFFl); arith Insn.Add (reg Reg.EAX) (imm 1l); Insn.Int3 ]
  in
  Alcotest.(check bool) "cf on wrap" true (Emulator.flag_cf emu);
  Alcotest.(check bool) "zf on wrap" true (Emulator.flag_zf emu)

let test_push_pop_stack () =
  let emu, _ =
    run_program
      [
        Insn.Push_imm 0x11223344l;
        Insn.Push_imm 0x55667788l;
        Insn.Pop_reg Reg.EAX;
        Insn.Pop_reg Reg.EBX;
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 0x55667788l;
  check_reg emu Reg.EBX 0x11223344l

let test_memory_store_load () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EDI) (imm (Int32.add Emulator.code_base 0x1000l));
        mov32 (Insn.Mem (Insn.mem_base Reg.EDI)) (imm 0xCAFEBABEl);
        mov32 (reg Reg.EAX) (Insn.Mem (Insn.mem_base Reg.EDI));
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.BL, Insn.Mem (Insn.mem_base_disp Reg.EDI 1l));
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 0xCAFEBABEl;
  Alcotest.(check int32) "byte load" 0xBAl
    (Int32.logand (Emulator.reg emu Reg.EBX) 0xFFl)

let test_loop_counts () =
  (* sum 1..5 via loop *)
  let code =
    Asm.assemble
      [
        Asm.I (mov32 (reg Reg.ECX) (imm 5l));
        Asm.I (arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX));
        Asm.Label "top";
        Asm.I (arith Insn.Add (reg Reg.EAX) (reg Reg.ECX));
        Asm.Loop_to "top";
        Asm.I Insn.Int3;
      ]
  in
  let emu = Emulator.create ~code () in
  let _ = Emulator.run emu in
  check_reg emu Reg.EAX 15l

let test_call_ret () =
  let code =
    Asm.assemble
      [
        Asm.Call "sub";
        Asm.I (arith Insn.Add (reg Reg.EAX) (imm 1l));
        Asm.I Insn.Int3;
        Asm.Label "sub";
        Asm.I (mov32 (reg Reg.EAX) (imm 41l));
        Asm.I Insn.Ret;
      ]
  in
  let emu = Emulator.create ~code () in
  let _ = Emulator.run emu in
  check_reg emu Reg.EAX 42l

let test_cond_branches () =
  let code =
    Asm.assemble
      [
        Asm.I (mov32 (reg Reg.EAX) (imm 3l));
        Asm.I (arith Insn.Cmp (reg Reg.EAX) (imm 3l));
        Asm.Jcc (Insn.E, "eq");
        Asm.I (mov32 (reg Reg.EBX) (imm 0l));
        Asm.I Insn.Int3;
        Asm.Label "eq";
        Asm.I (mov32 (reg Reg.EBX) (imm 1l));
        Asm.I Insn.Int3;
      ]
  in
  let emu = Emulator.create ~code () in
  let _ = Emulator.run emu in
  check_reg emu Reg.EBX 1l

let test_string_ops () =
  let emu, _ =
    run_program
      [
        (* copy 4 bytes via movsb *)
        mov32 (reg Reg.ESI) (imm Emulator.code_base);
        mov32 (reg Reg.EDI) (imm (Int32.add Emulator.code_base 0x2000l));
        Insn.Cld;
        Insn.Movsb;
        Insn.Movsb;
        Insn.Movsb;
        Insn.Movsb;
        Insn.Int3;
      ]
  in
  let copied = read_mem emu (Int32.add Emulator.code_base 0x2000l) 4 in
  let original = read_mem emu Emulator.code_base 4 in
  Alcotest.(check string) "movsb copies" original copied

let test_self_modifying_code () =
  (* the program patches a later instruction: mov ebx, 1 becomes
     mov ebx, 2 by overwriting its immediate *)
  let patch_site = 8 in
  let prog =
    Encode.program
      [
        mov32 (reg Reg.EDI)
          (imm (Int32.add Emulator.code_base (Int32.of_int (patch_site + 1))));
        Insn.Mov (Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EDI), imm 2l);
        mov32 (reg Reg.EBX) (imm 1l);
        Insn.Int3;
      ]
  in
  (* check our patch-site arithmetic: instruction 3 starts at byte 10 *)
  let emu = Emulator.create ~code:prog () in
  let _ = Emulator.run emu in
  check_reg emu Reg.EBX 2l

let test_rep_stos_fill () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EDI) (imm (Int32.add Emulator.code_base 0x3000l));
        mov32 (reg Reg.ECX) (imm 16l);
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 0x7Al);
        Insn.Cld;
        Insn.Rep_stosb;
        Insn.Int3;
      ]
  in
  Alcotest.(check string) "filled"
    (String.make 16 'z')
    (read_mem emu (Int32.add Emulator.code_base 0x3000l) 16);
  check_reg emu Reg.ECX 0l

let test_rep_movs_copy () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.ESI) (imm Emulator.code_base);
        mov32 (reg Reg.EDI) (imm (Int32.add Emulator.code_base 0x3000l));
        mov32 (reg Reg.ECX) (imm 8l);
        Insn.Cld;
        Insn.Rep_movsb;
        Insn.Int3;
      ]
  in
  Alcotest.(check string) "copied"
    (read_mem emu Emulator.code_base 8)
    (read_mem emu (Int32.add Emulator.code_base 0x3000l) 8)

let test_mul_div () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EAX) (imm 7l);
        mov32 (reg Reg.EBX) (imm 6l);
        Insn.Mul (Insn.S32bit, reg Reg.EBX);
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 42l;
  check_reg emu Reg.EDX 0l;
  (* wide product lands in EDX:EAX *)
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EAX) (imm 0x80000000l);
        mov32 (reg Reg.EBX) (imm 4l);
        Insn.Mul (Insn.S32bit, reg Reg.EBX);
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EDX 2l;
  check_reg emu Reg.EAX 0l;
  (* division with remainder *)
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EDX) (imm 0l);
        mov32 (reg Reg.EAX) (imm 43l);
        mov32 (reg Reg.ECX) (imm 5l);
        Insn.Div (Insn.S32bit, reg Reg.ECX);
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 8l;
  check_reg emu Reg.EDX 3l

let test_div_by_zero_faults () =
  let _, outcome =
    run_program
      [
        arith Insn.Xor (reg Reg.EBX) (reg Reg.EBX);
        mov32 (reg Reg.EAX) (imm 1l);
        Insn.Div (Insn.S32bit, reg Reg.EBX);
      ]
  in
  match outcome with
  | Emulator.Halted "divide error" -> ()
  | _ -> Alcotest.fail "expected divide error"

let test_movzx_movsx () =
  let emu, _ =
    run_program
      [
        mov32 (reg Reg.EBX) (imm 0xFFFFFF85l);
        Insn.Movzx (Reg.EAX, Insn.Reg8 Reg.BL);
        Insn.Movsx (Reg.EDX, Insn.Reg8 Reg.BL);
        Insn.Int3;
      ]
  in
  check_reg emu Reg.EAX 0x85l;
  check_reg emu Reg.EDX 0xFFFFFF85l

let test_imul3 () =
  let emu, _ =
    run_program
      [ mov32 (reg Reg.EBX) (imm 10l); Insn.Imul3 (Reg.EAX, reg Reg.EBX, (-3l)); Insn.Int3 ]
  in
  check_reg emu Reg.EAX (-30l)

let test_syscall_surfaces () =
  let emu, outcome =
    run_program [ mov32 (reg Reg.EAX) (imm 11l); Insn.Int 0x80 ]
  in
  (match outcome with
  | Emulator.Syscall 0x80 -> ()
  | _ -> Alcotest.fail "expected syscall outcome");
  check_reg emu Reg.EAX 11l

let test_fault_on_wild_access () =
  let _, outcome = run_program [ mov32 (reg Reg.EAX) (Insn.Mem (Insn.mem_abs 4l)) ] in
  match outcome with
  | Emulator.Halted _ -> ()
  | _ -> Alcotest.fail "expected fault"

(* ------------------------------------------------------------------ *)
(* decoder validation: the engines' output really decodes *)

let payload = (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code

let validate_decoder code ~payload_off ~payload_len =
  let emu = Emulator.create ~code () in
  let payload_addr = Int32.add Emulator.code_base (Int32.of_int payload_off) in
  (* phase 1: run until execution enters the decoded payload *)
  let outcome, _ = Emulator.run ~max_steps:200_000 ~stop_at:payload_addr emu in
  (match outcome with
  | Emulator.Running when Int32.equal (Emulator.eip emu) payload_addr -> ()
  | Emulator.Running -> Alcotest.fail "ran out of budget before reaching payload"
  | Emulator.Syscall _ -> Alcotest.fail "unexpected syscall during decoding"
  | Emulator.Halted m -> Alcotest.failf "decoder halted: %s" m);
  (* the payload must be reconstructed in memory, byte for byte *)
  let decoded = read_mem emu payload_addr payload_len in
  Alcotest.(check string) "payload reconstructed" payload decoded;
  (* phase 2: the decoded shellcode itself runs to execve *)
  let outcome, _ = Emulator.run ~max_steps:10_000 emu in
  match outcome with
  | Emulator.Syscall 0x80 ->
      Alcotest.(check int32) "EAX = 11 (execve)" 11l (Emulator.reg emu Reg.EAX)
  | Emulator.Syscall n -> Alcotest.failf "wrong syscall vector 0x%x" n
  | Emulator.Running -> Alcotest.fail "payload never reached its syscall"
  | Emulator.Halted m -> Alcotest.failf "payload crashed: %s" m

let test_xor_decoders_execute () =
  let rng = Rng.create 0xE11E_0001L in
  for _ = 1 to 60 do
    let g = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
    validate_decoder g.Admmutate.code ~payload_off:g.Admmutate.payload_off
      ~payload_len:g.Admmutate.payload_len
  done

let test_alt_decoders_execute () =
  let rng = Rng.create 0xE11E_0002L in
  for _ = 1 to 60 do
    let g = Admmutate.generate ~family:Admmutate.Alt_chain rng ~payload in
    validate_decoder g.Admmutate.code ~payload_off:g.Admmutate.payload_off
      ~payload_len:g.Admmutate.payload_len
  done

let test_clet_decoders_execute () =
  let rng = Rng.create 0xE11E_0003L in
  for _ = 1 to 30 do
    let g = Clet.generate rng ~payload in
    (* clet appends shaped padding after the payload; recover the layout
       from the embedded admmutate structure: payload sits right before
       the padding *)
    let body_len = String.length g.Clet.code - g.Clet.pad_len in
    let payload_off = body_len - String.length payload in
    validate_decoder g.Clet.code ~payload_off ~payload_len:(String.length payload)
  done

let test_all_eight_shellcodes_execute () =
  (* each corpus entry, executed directly, reaches execve with EAX=11;
     binders reach their socketcall first *)
  List.iter
    (fun (e : Sanids_exploits.Shellcodes.entry) ->
      let emu = Emulator.create ~code:e.Sanids_exploits.Shellcodes.code () in
      let rec drive guard =
        if guard = 0 then Alcotest.failf "%s: too many syscalls" e.Sanids_exploits.Shellcodes.name
        else
          match Emulator.run ~max_steps:50_000 emu with
          | Emulator.Syscall 0x80, _ ->
              let eax = Int32.logand (Emulator.reg emu Reg.EAX) 0xFFl in
              if Int32.equal eax 11l then () (* reached execve *)
              else begin
                (* fake a kernel return value and keep going *)
                Emulator.set_reg emu Reg.EAX 3l;
                drive (guard - 1)
              end
          | Emulator.Syscall n, _ ->
              Alcotest.failf "%s: unexpected vector 0x%x" e.Sanids_exploits.Shellcodes.name n
          | Emulator.Halted m, _ ->
              Alcotest.failf "%s: halted: %s" e.Sanids_exploits.Shellcodes.name m
          | Emulator.Running, _ ->
              Alcotest.failf "%s: never reached execve" e.Sanids_exploits.Shellcodes.name
      in
      drive 16)
    Sanids_exploits.Shellcodes.all

(* ------------------------------------------------------------------ *)
(* abstraction soundness: Absint's constants agree with concrete execution *)

let gen_safe_insn =
  (* straight-line register/stack programs: no memory, no branches *)
  let open QCheck2.Gen in
  let reg_g = oneofl [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
  let reg8_g = oneofl [ Reg.AL; Reg.BL; Reg.CL; Reg.DL; Reg.AH; Reg.BH ] in
  let imm_g = map Int32.of_int (int_range (-100000) 100000) in
  let imm8_g = map Int32.of_int (int_range 0 255) in
  oneof
    [
      (let* r = reg_g and* v = imm_g in
       return (mov32 (reg r) (imm v)));
      (let* a = reg_g and* b = reg_g in
       return (mov32 (reg a) (reg b)));
      (let* r = reg8_g and* v = imm8_g in
       return (Insn.Mov (Insn.S8bit, Insn.Reg8 r, imm v)));
      (let* op = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ]
       and* r = reg_g and* v = imm_g in
       return (arith op (reg r) (imm v)));
      (let* op = oneofl [ Insn.Add; Insn.Sub; Insn.And; Insn.Or; Insn.Xor ]
       and* a = reg_g and* b = reg_g in
       return (arith op (reg a) (reg b)));
      (let* op = oneofl [ Insn.Add; Insn.Sub; Insn.Xor ]
       and* r = reg8_g and* v = imm8_g in
       return (Insn.Arith (op, Insn.S8bit, Insn.Reg8 r, imm v)));
      (let* r = reg_g in
       return (Insn.Not (Insn.S32bit, reg r)));
      (let* r = reg_g in
       return (Insn.Neg (Insn.S32bit, reg r)));
      (let* r = reg_g in
       return (Insn.Inc (Insn.S32bit, reg r)));
      (let* r = reg_g in
       return (Insn.Dec (Insn.S32bit, reg r)));
      (let* op = oneofl [ Insn.Shl; Insn.Shr; Insn.Sar; Insn.Rol; Insn.Ror ]
       and* r = reg_g and* n = int_range 1 31 in
       return (Insn.Shift (op, Insn.S32bit, reg r, n)));
      (let* op = oneofl [ Insn.Shl; Insn.Shr; Insn.Sar; Insn.Rol; Insn.Ror ]
       and* r = reg8_g and* n = int_range 1 31 in
       return (Insn.Shift (op, Insn.S8bit, Insn.Reg8 r, n)));
      (let* d = reg_g and* s = reg8_g in
       return (Insn.Movzx (d, Insn.Reg8 s)));
      (let* d = reg_g and* s = reg8_g in
       return (Insn.Movsx (d, Insn.Reg8 s)));
      (let* a = reg_g and* b = reg_g in
       return (Insn.Xchg (a, b)));
      (let* v = imm_g in
       return (Insn.Push_imm v));
      (let* r = reg_g in
       return (Insn.Push_reg r));
      (let* r = reg_g in
       return (Insn.Pop_reg r));
      (let* r = reg_g and* b = reg_g and* d = imm_g in
       return (Insn.Lea (r, Insn.mem_base_disp b d)));
    ]

(* ESP moves that keep the stack dword-aligned, and ones that do not:
   the abstract stack must follow the first and forget on the second *)
let gen_stack_insn =
  let open QCheck2.Gen in
  frequency
    [
      (8, gen_safe_insn);
      ( 1,
        let* op = oneofl [ Insn.Add; Insn.Sub ] and* k = int_range 1 3 in
        return (arith op (reg Reg.ESP) (imm (Int32.of_int (4 * k)))) );
      (* stack reservations at and past the slot model's 128-slot cap *)
      (1, map (fun n -> arith Insn.Sub (reg Reg.ESP) (imm n)) (oneofl [ 0x1fcl; 0x200l ]));
      ( 1,
        let* inc = bool in
        return
          (if inc then Insn.Inc (Insn.S32bit, reg Reg.ESP)
           else Insn.Dec (Insn.S32bit, reg Reg.ESP)) );
    ]

(* Bytes the program leaves on the stack after each instruction must
   never go negative: reading above the entry ESP would read memory the
   program never wrote. *)
let stack_balanced insns =
  let depth = ref 0 in
  List.for_all
    (fun i ->
      (match i with
      | Insn.Push_imm _ | Insn.Push_reg _ -> depth := !depth + 4
      | Insn.Pop_reg _ -> depth := !depth - 4
      | Insn.Arith (Insn.Add, _, Insn.Reg Reg.ESP, Insn.Imm n) ->
          depth := !depth - Int32.to_int n
      | Insn.Arith (Insn.Sub, _, Insn.Reg Reg.ESP, Insn.Imm n) ->
          depth := !depth + Int32.to_int n
      | Insn.Inc (_, Insn.Reg Reg.ESP) -> decr depth
      | Insn.Dec (_, Insn.Reg Reg.ESP) -> incr depth
      | _ -> ());
      !depth >= 0)
    insns

let stack_regs = [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI; Reg.ESP ]

(* Run a stack program concretely and abstractly from both the
   nothing-known state and the emulator's exact entry state, and check
   [sound] on every register (ESP included) of both abstract results. *)
let abstract_agrees sound insns =
  QCheck2.assume (stack_balanced insns);
  let insns = insns @ [ Insn.Int3 ] in
  let emu = Emulator.create ~code:(Encode.program insns) () in
  let _ = Emulator.run emu in
  List.for_all
    (fun init ->
      let abstract = List.fold_left Sanids_ir.Absint.step_insn init insns in
      List.for_all (fun r -> sound abstract r (Emulator.reg emu r)) stack_regs)
    [ Sanids_ir.Absint.initial; Sanids_ir.Absint.entry_state () ]

let prop_absint_consts_sound =
  QCheck2.Test.make ~name:"Absint constants sound wrt emulator" ~count:500
    ~print:(fun is -> Pretty.program_to_string is)
    QCheck2.Gen.(list_size (int_range 1 25) gen_stack_insn)
    (abstract_agrees (fun abstract r concrete ->
         match Sanids_ir.Absint.reg32 abstract r with
         | Some v -> Int32.equal v concrete
         | None -> true))

let prop_low8_sound =
  QCheck2.Test.make ~name:"Absint low-byte knowledge sound" ~count:300
    ~print:(fun is -> Pretty.program_to_string is)
    QCheck2.Gen.(list_size (int_range 1 20) gen_stack_insn)
    (abstract_agrees (fun abstract r concrete ->
         match Sanids_ir.Absint.reg_low8 abstract r with
         | Some b -> Int32.to_int (Int32.logand concrete 0xFFl) = b
         | None -> true))

(* metamorphic rewriting preserves concrete register state on arbitrary
   branch-free programs *)
let prop_metamorph_equivalent =
  QCheck2.Test.make ~name:"metamorph preserves final register state" ~count:300
    ~print:(fun (is, _) -> Pretty.program_to_string is)
    QCheck2.Gen.(pair (list_size (int_range 1 20) gen_safe_insn) int64)
    (fun (insns, seed) ->
      QCheck2.assume (stack_balanced insns);
      let rng = Rng.create seed in
      (* junk-free mutation must preserve every register; junky mutation
         must preserve the registers the original program touches (junk
         may scribble on dead ones — that is its purpose) *)
      let mutant_clean = Sanids_polymorph.Metamorph.mutate ~junk:0 (Rng.copy rng) insns in
      let mutant_junky = Sanids_polymorph.Metamorph.mutate rng insns in
      let all_regs = [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ] in
      let touched =
        List.filter
          (fun r ->
            List.exists
              (fun i ->
                List.exists (Reg.equal r)
                  (List.concat_map Sanids_ir.Sem.writes (Sanids_ir.Sem.lift i)))
              insns)
          all_regs
      in
      let run regs prog =
        let emu = Emulator.create ~code:(Encode.program (prog @ [ Insn.Int3 ])) () in
        let _ = Emulator.run emu in
        List.map (Emulator.reg emu) regs
      in
      run all_regs insns = run all_regs mutant_clean
      && run touched insns = run touched mutant_junky)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_absint_consts_sound; prop_low8_sound; prop_metamorph_equivalent ]

let () =
  Alcotest.run "emulator"
    [
      ( "semantics",
        [
          Alcotest.test_case "mov/arith" `Quick test_mov_and_arith;
          Alcotest.test_case "zero/sign flags" `Quick test_flags_zero_sign;
          Alcotest.test_case "carry" `Quick test_carry_unsigned;
          Alcotest.test_case "stack" `Quick test_push_pop_stack;
          Alcotest.test_case "memory" `Quick test_memory_store_load;
          Alcotest.test_case "loop" `Quick test_loop_counts;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "cond branches" `Quick test_cond_branches;
          Alcotest.test_case "string ops" `Quick test_string_ops;
          Alcotest.test_case "self-modifying code" `Quick test_self_modifying_code;
          Alcotest.test_case "rep stosb" `Quick test_rep_stos_fill;
          Alcotest.test_case "rep movsb" `Quick test_rep_movs_copy;
          Alcotest.test_case "mul/div" `Quick test_mul_div;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
          Alcotest.test_case "movzx/movsx" `Quick test_movzx_movsx;
          Alcotest.test_case "imul3" `Quick test_imul3;
          Alcotest.test_case "syscall surfaces" `Quick test_syscall_surfaces;
          Alcotest.test_case "wild access faults" `Quick test_fault_on_wild_access;
        ] );
      ( "decoder validation",
        [
          Alcotest.test_case "xor decoders execute" `Slow test_xor_decoders_execute;
          Alcotest.test_case "alt decoders execute" `Slow test_alt_decoders_execute;
          Alcotest.test_case "clet decoders execute" `Slow test_clet_decoders_execute;
          Alcotest.test_case "all eight shellcodes execute" `Quick
            test_all_eight_shellcodes_execute;
        ] );
      ("abstraction soundness", properties);
    ]
