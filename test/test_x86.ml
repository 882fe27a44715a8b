(* Unit, golden and property tests for the x86 encoder/decoder/assembler. *)

open Sanids_x86

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)

let insn_testable = Alcotest.testable Pretty.pp Insn.equal

let hex = Hexdump.encode

let check_encodes expect i =
  check_string (Pretty.to_string i) expect (hex (Encode.insn_to_bytes i))

(* ------------------------------------------------------------------ *)
(* Golden encodings, including every instruction from the paper's
   Figure 1 listings. *)

let test_figure1a_bytes () =
  (* decode: xor byte ptr [eax], 95h ; inc eax ; loop decode *)
  check_encodes "803095"
    (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Imm 0x95l));
  check_encodes "40" (Insn.Inc (Insn.S32bit, Insn.Reg Reg.EAX));
  check_encodes "e2fa" (Insn.Loop (-6))

let test_figure1b_bytes () =
  (* mov ebx, 31h ; add ebx, 64h ; xor byte ptr [eax], bl ; add eax, 1 *)
  check_encodes "bb31000000"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EBX, Insn.Imm 0x31l));
  check_encodes "83c364"
    (Insn.Arith (Insn.Add, Insn.S32bit, Insn.Reg Reg.EBX, Insn.Imm 0x64l));
  check_encodes "3018"
    (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Reg8 Reg.BL));
  check_encodes "83c001"
    (Insn.Arith (Insn.Add, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm 1l))

let test_common_shellcode_bytes () =
  check_encodes "90" Insn.Nop;
  check_encodes "cd80" (Insn.Int 0x80);
  check_encodes "cc" Insn.Int3;
  check_encodes "31c0"
    (Insn.Arith (Insn.Xor, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Reg Reg.EAX));
  check_encodes "50" (Insn.Push_reg Reg.EAX);
  check_encodes "5b" (Insn.Pop_reg Reg.EBX);
  check_encodes "682f736800" (Insn.Push_imm 0x0068732Fl);
  check_encodes "6a0b" (Insn.Push_imm 11l);
  check_encodes "c3" Insn.Ret;
  check_encodes "99" Insn.Cdq;
  check_encodes "f7d0" (Insn.Not (Insn.S32bit, Insn.Reg Reg.EAX));
  check_encodes "f7db" (Insn.Neg (Insn.S32bit, Insn.Reg Reg.EBX));
  check_encodes "f3a4" Insn.Rep_movsb;
  check_encodes "f3ab" Insn.Rep_stosd;
  check_encodes "0fb6c3" (Insn.Movzx (Reg.EAX, Insn.Reg8 Reg.BL));
  check_encodes "0fbe11" (Insn.Movsx (Reg.EDX, Insn.Mem (Insn.mem_base Reg.ECX)));
  check_encodes "f7e3" (Insn.Mul (Insn.S32bit, Insn.Reg Reg.EBX));
  check_encodes "f7f9" (Insn.Idiv (Insn.S32bit, Insn.Reg Reg.ECX));
  check_encodes "0fafc3" (Insn.Imul2 (Reg.EAX, Insn.Reg Reg.EBX));
  check_encodes "6bc305" (Insn.Imul3 (Reg.EAX, Insn.Reg Reg.EBX, 5l));
  check_encodes "69c300010000" (Insn.Imul3 (Reg.EAX, Insn.Reg Reg.EBX, 256l))

let test_modrm_forms () =
  (* disp8 vs disp32 vs absolute vs SIB *)
  check_encodes "8b4304"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Mem (Insn.mem_base_disp Reg.EBX 4l)));
  check_encodes "8b8300010000"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Mem (Insn.mem_base_disp Reg.EBX 256l)));
  check_encodes "8b0d44332211"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.ECX, Insn.Mem (Insn.mem_abs 0x11223344l)));
  (* ESP base forces SIB *)
  check_encodes "8b0424"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Mem (Insn.mem_base Reg.ESP)));
  (* EBP base forces a displacement byte *)
  check_encodes "8b4500"
    (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Mem (Insn.mem_base Reg.EBP)));
  (* base + scaled index *)
  check_encodes "8b048b"
    (Insn.Mov
       ( Insn.S32bit,
         Insn.Reg Reg.EAX,
         Insn.Mem { Insn.base = Some Reg.EBX; index = Some (Reg.ECX, Insn.S4); disp = 0l } ));
  (* index without base *)
  check_encodes "8b04cd00000000"
    (Insn.Mov
       ( Insn.S32bit,
         Insn.Reg Reg.EAX,
         Insn.Mem { Insn.base = None; index = Some (Reg.ECX, Insn.S8); disp = 0l } ))

let test_lea_and_shift () =
  check_encodes "8d4801"
    (Insn.Lea (Reg.ECX, Insn.mem_base_disp Reg.EAX 1l));
  check_encodes "c1e005" (Insn.Shift (Insn.Shl, Insn.S32bit, Insn.Reg Reg.EAX, 5));
  check_encodes "d1e8" (Insn.Shift (Insn.Shr, Insn.S32bit, Insn.Reg Reg.EAX, 1))

let test_branches () =
  check_encodes "eb05" (Insn.Jmp_rel 5);
  check_encodes "e900010000" (Insn.Jmp_rel 256);
  check_encodes "7405" (Insn.Jcc_rel (Insn.E, 5));
  check_encodes "0f8400010000" (Insn.Jcc_rel (Insn.E, 256));
  check_encodes "e8fbffffff" (Insn.Call_rel (-5));
  check_encodes "e3fe" (Insn.Jecxz (-2))

let test_encode_rejects () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () ->
      Encode.insn_to_bytes
        (Insn.Mov (Insn.S32bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Mem (Insn.mem_base Reg.EBX))));
  raises (fun () ->
      Encode.insn_to_bytes (Insn.Mov (Insn.S8bit, Insn.Reg Reg.EAX, Insn.Imm 1l)));
  raises (fun () -> Encode.insn_to_bytes (Insn.Loop 4000));
  raises (fun () -> Encode.insn_to_bytes (Insn.Shift (Insn.Shl, Insn.S32bit, Insn.Reg Reg.EAX, 0)));
  raises (fun () ->
      Encode.insn_to_bytes
        (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, Insn.Imm 256l)));
  raises (fun () ->
      Encode.insn_to_bytes
        (Insn.Lea
           ( Reg.EAX,
             { Insn.base = None; index = Some (Reg.ESP, Insn.S1); disp = 0l } )))

(* ------------------------------------------------------------------ *)
(* Golden decodings *)

let decode_insns s =
  Array.to_list (Array.map (fun (d : Decode.decoded) -> d.Decode.insn) (Decode.all s))

let test_decode_figure1a () =
  let bytes = Hexdump.decode "80309540e2fa" in
  Alcotest.(check (list insn_testable))
    "figure 1a"
    [
      Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Imm 0x95l);
      Insn.Inc (Insn.S32bit, Insn.Reg Reg.EAX);
      Insn.Loop (-6);
    ]
    (decode_insns bytes)

let test_decode_short_forms () =
  (* The decoder accepts accumulator short forms the encoder never emits. *)
  Alcotest.check insn_testable "04 imm8 = add al"
    (Insn.Arith (Insn.Add, Insn.S8bit, Insn.Reg8 Reg.AL, Insn.Imm 0x41l))
    (Decode.one "\x04\x41");
  Alcotest.check insn_testable "35 = xor eax, imm32"
    (Insn.Arith (Insn.Xor, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm 0x11223344l))
    (Decode.one "\x35\x44\x33\x22\x11");
  Alcotest.check insn_testable "a8 = test al, imm8"
    (Insn.Test (Insn.S8bit, Insn.Reg8 Reg.AL, Insn.Imm 1l))
    (Decode.one "\xa8\x01");
  Alcotest.check insn_testable "91 = xchg ecx, eax"
    (Insn.Xchg (Reg.ECX, Reg.EAX))
    (Decode.one "\x91")

let test_decode_bad_bytes () =
  (* 0x0f with an unsupported second byte; a lone truncated mov *)
  (match Decode.one "\x0f\x05" with
  | Insn.Bad 0x0F -> ()
  | other -> Alcotest.failf "expected Bad 0x0f, got %s" (Pretty.to_string other));
  match Decode.one "\x8b" with
  | Insn.Bad 0x8B -> ()
  | other -> Alcotest.failf "expected Bad 0x8b, got %s" (Pretty.to_string other)

let test_decode_offsets_partition () =
  let t = Rng.create 2024L in
  for _ = 1 to 50 do
    let s = Rng.bytes t (Rng.int_in t 1 400) in
    let ds = Decode.all s in
    let total = Array.fold_left (fun acc (d : Decode.decoded) -> acc + d.Decode.len) 0 ds in
    check_int "lengths partition buffer" (String.length s) total;
    let expected_off = ref 0 in
    Array.iter
      (fun (d : Decode.decoded) ->
        check_int "contiguous" !expected_off d.Decode.off;
        expected_off := !expected_off + d.Decode.len)
      ds
  done

(* ------------------------------------------------------------------ *)
(* Assembler *)

let test_asm_figure1c () =
  (* The obfuscated Figure 1(c) routine, labels and all. *)
  let items =
    [
      Asm.Label "decode";
      Asm.I (Insn.Mov (Insn.S32bit, Insn.Reg Reg.ECX, Insn.Imm 0l));
      Asm.I (Insn.Inc (Insn.S32bit, Insn.Reg Reg.ECX));
      Asm.I (Insn.Inc (Insn.S32bit, Insn.Reg Reg.ECX));
      Asm.Jmp "one";
      Asm.Label "two";
      Asm.I (Insn.Arith (Insn.Add, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm 1l));
      Asm.Jmp "three";
      Asm.Label "one";
      Asm.I (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EBX, Insn.Imm 0x31l));
      Asm.I (Insn.Arith (Insn.Add, Insn.S32bit, Insn.Reg Reg.EBX, Insn.Imm 0x64l));
      Asm.I (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Reg8 Reg.BL));
      Asm.Jmp "two";
      Asm.Label "three";
      Asm.Loop_to "decode";
    ]
  in
  let code = Asm.assemble items in
  let ds = Decode.all code in
  (* every byte decodes to a real instruction, no Bad *)
  Array.iter
    (fun (d : Decode.decoded) ->
      match d.Decode.insn with
      | Insn.Bad b -> Alcotest.failf "bad byte 0x%02x at %d" b d.Decode.off
      | _ -> ())
    ds;
  (* the loop displacement lands back on offset 0 *)
  let last = ds.(Array.length ds - 1) in
  (match last.Decode.insn with
  | Insn.Loop d -> check_int "loop returns to decode" 0 (last.Decode.off + last.Decode.len + d)
  | other -> Alcotest.failf "expected loop, got %s" (Pretty.to_string other));
  (* jmp "one" skips the add block *)
  match ds.(3).Decode.insn with
  | Insn.Jmp_rel _ -> ()
  | other -> Alcotest.failf "expected jmp, got %s" (Pretty.to_string other)

let test_asm_undefined_label () =
  match Asm.assemble [ Asm.Jmp "nowhere" ] with
  | exception Asm.Error _ -> ()
  | _ -> Alcotest.fail "expected Asm.Error"

let test_asm_duplicate_label () =
  match Asm.assemble [ Asm.Label "a"; Asm.Label "a" ] with
  | exception Asm.Error _ -> ()
  | _ -> Alcotest.fail "expected Asm.Error"

let test_asm_loop_out_of_range () =
  let far = List.init 200 (fun _ -> Asm.I Insn.Nop) in
  match Asm.assemble ((Asm.Label "top" :: far) @ [ Asm.Loop_to "top" ]) with
  | exception Asm.Error _ -> ()
  | _ -> Alcotest.fail "expected Asm.Error for rel8 overflow"

let test_asm_raw_bytes () =
  let code = Asm.assemble [ Asm.Raw "\x90\x90"; Asm.I Insn.Ret ] in
  check_string "raw then ret" "9090c3" (hex code)

(* ------------------------------------------------------------------ *)
(* Property: decode ∘ encode = id on the valid instruction space *)

let gen_reg = QCheck2.Gen.oneofl (Array.to_list Reg.all)
let gen_reg8 = QCheck2.Gen.oneofl (Array.to_list Reg.all8)

let gen_scale = QCheck2.Gen.oneofl [ Insn.S1; Insn.S2; Insn.S4; Insn.S8 ]

let gen_disp =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.return 0l;
      QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range (-128) 127);
      QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range (-70000) 70000);
      QCheck2.Gen.return 0x7FFFFFFFl;
      QCheck2.Gen.return (-2147483648l);
    ]

let gen_index_reg = QCheck2.Gen.oneofl [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.EBX; Reg.EBP; Reg.ESI; Reg.EDI ]

let gen_mem =
  let open QCheck2.Gen in
  let* base = opt gen_reg in
  let* index = opt (pair gen_index_reg gen_scale) in
  let* disp = gen_disp in
  return { Insn.base; index; disp }

let gen_imm32 =
  QCheck2.Gen.oneof
    [
      QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range (-128) 127);
      QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range (-100000) 100000);
      QCheck2.Gen.return 0x80000000l;
      QCheck2.Gen.return 0xDEADBEEFl;
    ]

let gen_imm8 = QCheck2.Gen.map Int32.of_int (QCheck2.Gen.int_range 0 255)

let gen_rm32 =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map (fun r -> Insn.Reg r) gen_reg; QCheck2.Gen.map (fun m -> Insn.Mem m) gen_mem ]

let gen_rm8 =
  QCheck2.Gen.oneof
    [ QCheck2.Gen.map (fun r -> Insn.Reg8 r) gen_reg8; QCheck2.Gen.map (fun m -> Insn.Mem m) gen_mem ]

let gen_arith_op =
  QCheck2.Gen.oneofl
    [ Insn.Add; Insn.Or; Insn.Adc; Insn.Sbb; Insn.And; Insn.Sub; Insn.Xor; Insn.Cmp ]

let gen_shift_op = QCheck2.Gen.oneofl [ Insn.Rol; Insn.Ror; Insn.Shl; Insn.Shr; Insn.Sar ]

let gen_cc =
  QCheck2.Gen.oneofl
    [
      Insn.O; Insn.NO; Insn.B; Insn.AE; Insn.E; Insn.NE; Insn.BE; Insn.A; Insn.S;
      Insn.NS; Insn.P; Insn.NP; Insn.L; Insn.GE; Insn.LE; Insn.G;
    ]

let gen_rel = QCheck2.Gen.oneof [ QCheck2.Gen.int_range (-128) 127; QCheck2.Gen.int_range (-100000) 100000 ]
let gen_rel8 = QCheck2.Gen.int_range (-128) 127

let nullary_insns =
  [
    Insn.Pushad; Insn.Popad; Insn.Pushfd; Insn.Popfd; Insn.Ret; Insn.Int3;
    Insn.Nop; Insn.Cld; Insn.Std; Insn.Lodsb; Insn.Lodsd; Insn.Stosb;
    Insn.Stosd; Insn.Movsb; Insn.Movsd; Insn.Scasb; Insn.Cmpsb; Insn.Cdq;
    Insn.Cwde; Insn.Clc; Insn.Stc; Insn.Cmc; Insn.Sahf; Insn.Lahf;
    Insn.Fwait; Insn.Rep_movsb; Insn.Rep_movsd; Insn.Rep_stosb;
    Insn.Rep_stosd;
  ]

let gen_insn =
  let open QCheck2.Gen in
  oneof
    [
      (* mov, 32-bit *)
      (let* r = gen_reg and* v = gen_imm32 in
       return (Insn.Mov (Insn.S32bit, Insn.Reg r, Insn.Imm v)));
      (let* m = gen_mem and* v = gen_imm32 in
       return (Insn.Mov (Insn.S32bit, Insn.Mem m, Insn.Imm v)));
      (let* m = gen_mem and* r = gen_reg in
       return (Insn.Mov (Insn.S32bit, Insn.Mem m, Insn.Reg r)));
      (let* a = gen_reg and* b = gen_reg in
       return (Insn.Mov (Insn.S32bit, Insn.Reg a, Insn.Reg b)));
      (let* r = gen_reg and* m = gen_mem in
       return (Insn.Mov (Insn.S32bit, Insn.Reg r, Insn.Mem m)));
      (* mov, 8-bit *)
      (let* r = gen_reg8 and* v = gen_imm8 in
       return (Insn.Mov (Insn.S8bit, Insn.Reg8 r, Insn.Imm v)));
      (let* m = gen_mem and* v = gen_imm8 in
       return (Insn.Mov (Insn.S8bit, Insn.Mem m, Insn.Imm v)));
      (let* m = gen_mem and* r = gen_reg8 in
       return (Insn.Mov (Insn.S8bit, Insn.Mem m, Insn.Reg8 r)));
      (let* a = gen_reg8 and* b = gen_reg8 in
       return (Insn.Mov (Insn.S8bit, Insn.Reg8 a, Insn.Reg8 b)));
      (let* r = gen_reg8 and* m = gen_mem in
       return (Insn.Mov (Insn.S8bit, Insn.Reg8 r, Insn.Mem m)));
      (* arithmetic group *)
      (let* op = gen_arith_op and* rm = gen_rm32 and* v = gen_imm32 in
       return (Insn.Arith (op, Insn.S32bit, rm, Insn.Imm v)));
      (let* op = gen_arith_op and* rm = gen_rm8 and* v = gen_imm8 in
       return (Insn.Arith (op, Insn.S8bit, rm, Insn.Imm v)));
      (let* op = gen_arith_op and* rm = gen_rm32 and* r = gen_reg in
       return (Insn.Arith (op, Insn.S32bit, rm, Insn.Reg r)));
      (let* op = gen_arith_op and* r = gen_reg and* m = gen_mem in
       return (Insn.Arith (op, Insn.S32bit, Insn.Reg r, Insn.Mem m)));
      (let* op = gen_arith_op and* rm = gen_rm8 and* r = gen_reg8 in
       return (Insn.Arith (op, Insn.S8bit, rm, Insn.Reg8 r)));
      (let* op = gen_arith_op and* r = gen_reg8 and* m = gen_mem in
       return (Insn.Arith (op, Insn.S8bit, Insn.Reg8 r, Insn.Mem m)));
      (* test *)
      (let* rm = gen_rm32 and* r = gen_reg in
       return (Insn.Test (Insn.S32bit, rm, Insn.Reg r)));
      (let* rm = gen_rm8 and* r = gen_reg8 in
       return (Insn.Test (Insn.S8bit, rm, Insn.Reg8 r)));
      (let* rm = gen_rm32 and* v = gen_imm32 in
       return (Insn.Test (Insn.S32bit, rm, Insn.Imm v)));
      (let* rm = gen_rm8 and* v = gen_imm8 in
       return (Insn.Test (Insn.S8bit, rm, Insn.Imm v)));
      (* unary *)
      (let* rm = gen_rm32 in
       return (Insn.Not (Insn.S32bit, rm)));
      (let* rm = gen_rm8 in
       return (Insn.Not (Insn.S8bit, rm)));
      (let* rm = gen_rm32 in
       return (Insn.Neg (Insn.S32bit, rm)));
      (let* rm = gen_rm32 in
       return (Insn.Inc (Insn.S32bit, rm)));
      (let* rm = gen_rm8 in
       return (Insn.Inc (Insn.S8bit, rm)));
      (let* rm = gen_rm32 in
       return (Insn.Dec (Insn.S32bit, rm)));
      (let* rm = gen_rm8 in
       return (Insn.Dec (Insn.S8bit, rm)));
      (* shifts *)
      (let* op = gen_shift_op and* rm = gen_rm32 and* n = int_range 1 31 in
       return (Insn.Shift (op, Insn.S32bit, rm, n)));
      (let* op = gen_shift_op and* rm = gen_rm8 and* n = int_range 1 31 in
       return (Insn.Shift (op, Insn.S8bit, rm, n)));
      (* lea / xchg / stack *)
      (let* r = gen_reg and* m = gen_mem in
       return (Insn.Lea (r, m)));
      (let* a = gen_reg and* b = gen_reg in
       return (Insn.Xchg (a, b)));
      (let* r = gen_reg in
       return (Insn.Push_reg r));
      (let* r = gen_reg in
       return (Insn.Pop_reg r));
      (let* v = gen_imm32 in
       return (Insn.Push_imm v));
      (* control flow *)
      (let* d = gen_rel in
       return (Insn.Jmp_rel d));
      (let* cc = gen_cc and* d = gen_rel in
       return (Insn.Jcc_rel (cc, d)));
      (let* d = gen_rel in
       return (Insn.Call_rel d));
      (let* d = gen_rel8 in
       return (Insn.Loop d));
      (let* d = gen_rel8 in
       return (Insn.Loope d));
      (let* d = gen_rel8 in
       return (Insn.Loopne d));
      (let* d = gen_rel8 in
       return (Insn.Jecxz d));
      (let* n = int_range 0 255 in
       return (Insn.Int n));
      (* extended arithmetic *)
      (let* d = gen_reg and* s = gen_reg8 in
       return (Insn.Movzx (d, Insn.Reg8 s)));
      (let* d = gen_reg and* m = gen_mem in
       return (Insn.Movzx (d, Insn.Mem m)));
      (let* d = gen_reg and* s = gen_reg8 in
       return (Insn.Movsx (d, Insn.Reg8 s)));
      (let* rm = gen_rm32 in
       return (Insn.Mul (Insn.S32bit, rm)));
      (let* rm = gen_rm8 in
       return (Insn.Imul (Insn.S8bit, rm)));
      (let* rm = gen_rm32 in
       return (Insn.Div (Insn.S32bit, rm)));
      (let* rm = gen_rm32 in
       return (Insn.Idiv (Insn.S32bit, rm)));
      (let* d = gen_reg and* rm = gen_rm32 in
       return (Insn.Imul2 (d, rm)));
      (let* d = gen_reg and* rm = gen_rm32 and* v = gen_imm32 in
       return (Insn.Imul3 (d, rm, v)));
      oneofl nullary_insns;
    ]

let prop_roundtrip =
  QCheck2.Test.make ~name:"decode (encode i) = [i]" ~count:5000
    ~print:(fun i -> Pretty.to_string i)
    gen_insn
    (fun i ->
      let bytes = Encode.insn_to_bytes i in
      match decode_insns bytes with
      | [ j ] -> Insn.equal i j
      | _ -> false)

let prop_program_roundtrip =
  QCheck2.Test.make ~name:"decode (program is) = is" ~count:500
    ~print:(fun is -> Pretty.program_to_string is)
    QCheck2.Gen.(list_size (int_range 1 20) gen_insn)
    (fun is ->
      let bytes = Encode.program is in
      let decoded = decode_insns bytes in
      List.length decoded = List.length is && List.for_all2 Insn.equal is decoded)

let prop_decode_total =
  QCheck2.Test.make ~name:"decode never raises on junk" ~count:1000
    QCheck2.Gen.(string_size (int_bound 300))
    (fun s ->
      let ds = Decode.all s in
      Array.fold_left (fun acc (d : Decode.decoded) -> acc + d.Decode.len) 0 ds
      = String.length s)

(* Byte evidence of decoded instructions — what makes the matcher's byte
   prefilter exact.  At every offset of a region, the decoded instruction
   lies inside the region, an [int v] carries the bytes [CD v], and every
   immediate or displacement outside [-128, 255] carries its 4
   little-endian bytes, all within the instruction's own bytes.  Each
   case is drawn from a printed seed: a random byte string and an
   encoder-built program. *)

let occurs_within s ~needle ~lo ~hi =
  let k = String.length needle in
  let rec go i = i + k <= hi && (String.sub s i k = needle || go (i + 1)) in
  go lo

let insn_consts (i : Insn.t) =
  let op (o : Insn.operand) =
    match o with
    | Insn.Imm v -> [ v ]
    | Insn.Mem m -> [ m.Insn.disp ]
    | Insn.Reg _ | Insn.Reg8 _ -> []
  in
  match i with
  | Insn.Mov (_, a, b) | Insn.Arith (_, _, a, b) | Insn.Test (_, a, b) -> op a @ op b
  | Insn.Not (_, o) | Insn.Neg (_, o) | Insn.Inc (_, o) | Insn.Dec (_, o)
  | Insn.Shift (_, _, o, _) | Insn.Movzx (_, o) | Insn.Movsx (_, o) | Insn.Mul (_, o)
  | Insn.Imul (_, o) | Insn.Div (_, o) | Insn.Idiv (_, o) | Insn.Imul2 (_, o) ->
      op o
  | Insn.Lea (_, m) -> [ m.Insn.disp ]
  | Insn.Push_imm v -> [ v ]
  | Insn.Imul3 (_, o, v) -> v :: op o
  | _ -> []

let le32 v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 v;
  Bytes.to_string b

let byte_evidence_holds s =
  let n = String.length s in
  let ok = ref true in
  for off = 0 to n - 1 do
    match Decode.at s off with
    | None -> ok := false
    | Some d ->
        let hi = off + d.Decode.len in
        let within needle = occurs_within s ~needle ~lo:off ~hi in
        if d.Decode.off <> off || hi > n then ok := false
        else begin
          (match d.Decode.insn with
          | Insn.Int v -> if not (within (Printf.sprintf "\xCD%c" (Char.chr v))) then ok := false
          | _ -> ());
          List.iter
            (fun c ->
              if (Int32.compare c (-128l) < 0 || Int32.compare c 255l > 0)
                 && not (within (le32 c))
              then ok := false)
            (insn_consts d.Decode.insn)
        end
  done;
  !ok

let prop_byte_evidence =
  QCheck2.Test.make ~name:"decoded constants lie in their own bytes" ~count:300
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let junk = Rng.bytes rng (Rng.int rng 300) in
      let program =
        Encode.program
          (QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |])
             QCheck2.Gen.(list_size (int_range 1 40) gen_insn))
      in
      byte_evidence_holds junk && byte_evidence_holds program)

(* The two instruction views ([Insn.flow], and the operands
   [Defuse.reads] is built from) against the emulator.  Each case, drawn
   from a printed seed, steps one encoded instruction once from a random
   machine state:
   (a) unless the step faults, EIP ends where [Insn.flow] says;
   (b) when changing a register other than ESP changes the outcome, EIP,
       the flags, memory or a register the instruction writes, that
       register is one [Defuse.reads] lists;
   (c) every register the step changes, ESP aside, is one [Sem.lift]
       writes;
   (d) a step that stores to the arena has an operation the lift marks
       as writing memory, and a step that stops at [int n] lifts to
       [S_syscall n].
   (c) and (d) are one-sided: the lift may over-approximate. *)

module Defuse = Sanids_ir.Defuse
module Trace = Sanids_ir.Trace
module Sem = Sanids_ir.Sem

let views_arena = 8192

type machine_state = {
  outcome : string;
  eip : int32;
  regs : int32 list;
  flags : int;
  mem : string;
  written : int;  (** arena bytes the guest stored *)
}

let step_once code regs flags data =
  let emu = Emulator.create ~arena_size:views_arena ~code () in
  let data_at = Int32.add Emulator.code_base (Int32.of_int (String.length code)) in
  ignore (Emulator.write_mem_opt emu data_at data);
  List.iter (fun (r, v) -> Emulator.set_reg emu r v) regs;
  Emulator.set_flags_word emu flags;
  let esp = Emulator.reg emu Reg.ESP in
  let popped =
    match Emulator.read_mem_opt emu esp 4 with
    | Some w -> Bytes.get_int32_le (Bytes.of_string w) 0
    | None -> 0l
  in
  let outcome =
    match Emulator.step emu with
    | Emulator.Running -> "running"
    | Emulator.Syscall n -> Printf.sprintf "syscall %d" n
    | Emulator.Halted m -> "halted: " ^ m
  in
  ( {
      outcome;
      eip = Emulator.eip emu;
      regs = List.map (Emulator.reg emu) (Array.to_list Reg.all);
      flags = Emulator.flags_word emu;
      mem = Option.get (Emulator.read_mem_opt emu Emulator.code_base views_arena);
      written = Emulator.written_count emu;
    },
    popped )

let flow_holds (i : Insn.t) ~len (after, popped) =
  let fin = Int32.add Emulator.code_base (Int32.of_int len) in
  let at d = Int32.add fin (Int32.of_int d) in
  let halted = String.starts_with ~prefix:"halted" after.outcome in
  match Insn.flow i with
  | Insn.Halt -> halted
  | _ when halted -> true (* a fault *)
  | Insn.Next -> after.eip = fin
  | Insn.Jump d | Insn.Call d -> after.eip = at d
  | Insn.Branch d -> after.eip = fin || after.eip = at d
  | Insn.Return -> after.eip = popped

let gen_reg_value rng =
  match Rng.int rng 3 with
  | 0 -> Int32.of_int (Rng.int rng 9)
  | 1 -> Int32.add Emulator.code_base (Int32.of_int (Rng.int rng views_arena))
  | _ -> Int64.to_int32 (Rng.int64 rng)

(* The register varied is compared too when the step wrote it, which
   shows as a final value other than its initial one in either run. *)
let reads_cover_dependencies ~code regs flags data =
  let base, _ = step_once code regs flags data in
  let reads = List.map fst (Defuse.reads (Defuse.analyze (Trace.build code ~entry:0)) 0) in
  List.for_all
    (fun (r, v) ->
      let v' = Int32.lognot v in
      let moved, _ =
        step_once code (List.map (fun (q, w) -> (q, if q = r then v' else w)) regs) flags data
      in
      let final s = List.nth s.regs (Reg.code r) in
      let others s = List.filteri (fun k _ -> k <> Reg.code r) s.regs in
      let written = final base <> v || final moved <> v' in
      let depends =
        { base with regs = []; written = 0 } <> { moved with regs = []; written = 0 }
        || others base <> others moved
        || (written && final base <> final moved)
      in
      (not depends) || List.mem r reads)
    regs

(* Every register the step changes, ESP aside, is one the lift writes. *)
let writes_cover_changes i ~code regs flags data =
  let after, _ = step_once code regs flags data in
  let writes = List.concat_map Sem.writes (Array.to_list (Sem.lift i)) in
  List.for_all (fun (r, v) -> List.nth after.regs (Reg.code r) = v || List.mem r writes) regs

(* A store shows in the lift as a memory write, a stop at [int n] as
   [S_syscall n]. *)
let lift_covers_effects i ~code regs flags data =
  let after, _ = step_once code regs flags data in
  let ops = Sem.lift i in
  (after.written = 0 || Array.exists Sem.writes_memory ops)
  &&
  match Scanf.sscanf_opt after.outcome "syscall %d%!" Fun.id with
  | None -> true
  | Some n -> Array.mem (Sem.S_syscall n) ops && Sem.kinds ops land Sem.k_syscall <> 0

(* The four clauses, from one machine state. *)
let views_hold i regs flags data =
  let code = Encode.insn_to_bytes i in
  flow_holds i ~len:(String.length code) (step_once code regs flags data)
  && reads_cover_dependencies ~code regs flags data
  && writes_cover_changes i ~code regs flags data
  && lift_covers_effects i ~code regs flags data

(* A random state: every register but ESP set, random flags, and the
   arena after the code filled with random bytes. *)
let random_state rng i =
  let regs =
    List.filter_map
      (fun r -> if r = Reg.ESP then None else Some (r, gen_reg_value rng))
      (Array.to_list Reg.all)
  in
  let flags = Rng.int rng 0x1000 in
  let data = Rng.bytes rng (views_arena - String.length (Encode.insn_to_bytes i)) in
  (regs, flags, data)

(* Half the cases are nullary: their operands are all implicit, where
   the views and the implicit lists can disagree. *)
let insn_of_seed seed =
  QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |])
    QCheck2.Gen.(oneof [ gen_insn; oneofl nullary_insns ])

let prop_views_match_emulator =
  QCheck2.Test.make ~name:"flow and reads agree with one emulator step" ~count:500
    ~print:(fun seed -> Printf.sprintf "seed %d (%s)" seed (Pretty.to_string (insn_of_seed seed)))
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let i = insn_of_seed seed in
      let regs, flags, data = random_state (Rng.create (Int64.of_int seed)) i in
      views_hold i regs flags data)

(* Every nullary instruction on every run: the draws above reach a given
   one in about 1 case of 58, too rarely to catch one wrong lift.  Each
   runs from a state whose registers all point into the arena (ECX a
   small count), where the string instructions load and store, and from
   16 seeded random states. *)
let test_nullary_views () =
  let at off = Int32.add Emulator.code_base (Int32.of_int off) in
  let in_arena =
    List.filter_map
      (fun r ->
        match r with
        | Reg.ESP -> None
        | Reg.ECX -> Some (r, 4l)
        | Reg.ESI -> Some (r, at 0x400)
        | Reg.EDI -> Some (r, at 0x800)
        | _ -> Some (r, at 0xC00))
      (Array.to_list Reg.all)
  in
  List.iter
    (fun i ->
      let data = String.make (views_arena - String.length (Encode.insn_to_bytes i)) '\x5A' in
      if not (views_hold i in_arena 0x202 data) then
        Alcotest.failf "%s: arena state" (Pretty.to_string i);
      for seed = 0 to 15 do
        let regs, flags, data = random_state (Rng.create (Int64.of_int seed)) i in
        if not (views_hold i regs flags data) then
          Alcotest.failf "%s: seed %d" (Pretty.to_string i) seed
      done)
    nullary_insns

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_program_roundtrip;
      prop_decode_total;
      prop_byte_evidence;
      prop_views_match_emulator;
    ]

let () =
  Alcotest.run "x86"
    [
      ( "encode",
        [
          Alcotest.test_case "figure 1a bytes" `Quick test_figure1a_bytes;
          Alcotest.test_case "figure 1b bytes" `Quick test_figure1b_bytes;
          Alcotest.test_case "shellcode staples" `Quick test_common_shellcode_bytes;
          Alcotest.test_case "modrm forms" `Quick test_modrm_forms;
          Alcotest.test_case "lea and shifts" `Quick test_lea_and_shift;
          Alcotest.test_case "branches" `Quick test_branches;
          Alcotest.test_case "rejects invalid" `Quick test_encode_rejects;
        ] );
      ( "decode",
        [
          Alcotest.test_case "figure 1a" `Quick test_decode_figure1a;
          Alcotest.test_case "short forms" `Quick test_decode_short_forms;
          Alcotest.test_case "bad bytes" `Quick test_decode_bad_bytes;
          Alcotest.test_case "offsets partition" `Quick test_decode_offsets_partition;
        ] );
      ( "asm",
        [
          Alcotest.test_case "figure 1c assembles" `Quick test_asm_figure1c;
          Alcotest.test_case "undefined label" `Quick test_asm_undefined_label;
          Alcotest.test_case "duplicate label" `Quick test_asm_duplicate_label;
          Alcotest.test_case "loop out of range" `Quick test_asm_loop_out_of_range;
          Alcotest.test_case "raw bytes" `Quick test_asm_raw_bytes;
        ] );
      ( "properties",
        properties
        @ [ Alcotest.test_case "nullary instructions, every clause" `Quick test_nullary_views ] );
    ]
