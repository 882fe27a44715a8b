(* Smoke and golden tests for the rendering surface and small API corners
   that the behavioural suites do not reach. *)

open Sanids_x86
open Sanids_ir

let reg r = Insn.Reg r
let imm v = Insn.Imm v

let check_pp expected i =
  Alcotest.(check string) expected expected (Pretty.to_string i)

let test_pretty_goldens () =
  check_pp "mov eax, 0x2a" (Insn.Mov (Insn.S32bit, reg Reg.EAX, imm 0x2Al));
  check_pp "mov al, 5" (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 5l));
  check_pp "xor byte ptr [eax], 0x95"
    (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), imm 0x95l));
  check_pp "mov dword ptr [ebx+0x10], ecx"
    (Insn.Mov (Insn.S32bit, Insn.Mem (Insn.mem_base_disp Reg.EBX 0x10l), reg Reg.ECX));
  check_pp "mov eax, dword ptr [ebx+ecx*4]"
    (Insn.Mov
       ( Insn.S32bit,
         reg Reg.EAX,
         Insn.Mem { Insn.base = Some Reg.EBX; index = Some (Reg.ECX, Insn.S4); disp = 0l } ));
  check_pp "mov eax, dword ptr [ebp-4]"
    (Insn.Mov (Insn.S32bit, reg Reg.EAX, Insn.Mem (Insn.mem_base_disp Reg.EBP (-4l))));
  check_pp "lea esi, [edi+1]" (Insn.Lea (Reg.ESI, Insn.mem_base_disp Reg.EDI 1l));
  check_pp "jmp $+5" (Insn.Jmp_rel 5);
  check_pp "jne $-12" (Insn.Jcc_rel (Insn.NE, -12));
  check_pp "loop $-6" (Insn.Loop (-6));
  check_pp "int 0x80" (Insn.Int 0x80);
  check_pp "push 0x68732f2f" (Insn.Push_imm 0x68732f2fl);
  check_pp "shl eax, 5" (Insn.Shift (Insn.Shl, Insn.S32bit, reg Reg.EAX, 5));
  check_pp "rep movsb" Insn.Rep_movsb;
  check_pp "(bad) 0xff" (Insn.Bad 0xFF)

let test_listing_format () =
  let code = Encode.program [ Insn.Nop; Insn.Ret ] in
  let listing = Format.asprintf "%a" Decode.pp_listing (Decode.all code) in
  Alcotest.(check string) "listing" "0000: nop\n0001: ret" listing

let test_trace_pp () =
  let code = Encode.program [ Insn.Nop; Insn.Int3 ] in
  let rendered = Format.asprintf "%a" Trace.pp (Trace.build code ~entry:0) in
  Alcotest.(check string) "trace" "0000: nop\n0001: int3" rendered

let test_sem_pp_smoke () =
  List.iter
    (fun i ->
      List.iter
        (fun sem ->
          Alcotest.(check bool) "nonempty rendering" true
            (String.length (Format.asprintf "%a" Sem.pp sem) > 0))
        (Sem.lift i))
    [
      Insn.Mov (Insn.S32bit, reg Reg.EAX, imm 1l);
      Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), imm 1l);
      Insn.Push_imm 4l;
      Insn.Lodsb;
      Insn.Int 0x80;
      Insn.Popad;
    ]

let test_template_pp () =
  let rendered =
    Format.asprintf "%a" Sanids_semantic.Template.pp
      (List.hd Sanids_semantic.Template_lib.xor_decrypt)
  in
  Alcotest.(check bool) "names the template" true
    (String.length rendered > 0
    &&
    let rec has i =
      i + 12 <= String.length rendered
      && (String.sub rendered i 12 = "decrypt-loop" || has (i + 1))
    in
    has 0)

(* ------------------------------------------------------------------ *)
(* API corners *)

let test_encode_length_agrees () =
  List.iter
    (fun i ->
      Alcotest.(check int) (Pretty.to_string i)
        (String.length (Encode.insn_to_bytes i))
        (Encode.length i))
    [
      Insn.Nop;
      Insn.Mov (Insn.S32bit, reg Reg.EAX, imm 0x12345678l);
      Insn.Jcc_rel (Insn.E, 300);
      Insn.Rep_stosd;
    ]

let test_decode_at_bounds () =
  let code = Encode.program [ Insn.Nop; Insn.Ret ] in
  (match Decode.at code 1 with
  | Some d -> Alcotest.(check bool) "ret at 1" true (d.Decode.insn = Insn.Ret)
  | None -> Alcotest.fail "expected decode");
  Alcotest.(check bool) "past end" true (Decode.at code 2 = None);
  Alcotest.(check bool) "negative" true (Decode.at code (-1) = None)

let test_asm_assemble_insns () =
  let insns =
    Asm.assemble_insns [ Asm.I Insn.Nop; Asm.Jmp "end"; Asm.Label "end"; Asm.I Insn.Ret ]
  in
  Alcotest.(check int) "three instructions" 3 (List.length insns);
  match insns with
  | [ Insn.Nop; Insn.Jmp_rel 0; Insn.Ret ] -> ()
  | _ -> Alcotest.fail "unexpected stream"

let test_entry_points_limit () =
  let code = String.concat "" (List.init 100 (fun _ -> Encode.insn_to_bytes Insn.Ret)) in
  Alcotest.(check bool) "limit respected" true
    (List.length (Trace.entry_points ~limit:10 code) <= 10)

let test_rng_corners () =
  let t = Rng.create 1L in
  Alcotest.(check bool) "pick_list" true (List.mem (Rng.pick_list t [ 1; 2; 3 ]) [ 1; 2; 3 ]);
  let g = Rng.sample_geometric t 0.5 in
  Alcotest.(check bool) "geometric nonnegative" true (g >= 0);
  (match Rng.pick_list t [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty pick_list must raise");
  Alcotest.(check int) "geometric p=1 is 0" 0 (Rng.sample_geometric t 1.0)

let test_reader_seek_bounds () =
  let r = Byte_io.Reader.of_string "abc" in
  (match Byte_io.Reader.seek r 4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "seek past end must raise");
  Byte_io.Reader.seek r 3;
  Alcotest.(check bool) "seek to end ok" true (Byte_io.Reader.is_empty r)

let test_stats_pp () =
  let s = { Sanids_nids.Stats.zero with Sanids_nids.Stats.packets = 3 } in
  let rendered = Format.asprintf "%a" Sanids_nids.Stats.pp s in
  Alcotest.(check bool) "mentions packets" true
    (String.length rendered > 8 && String.sub rendered 0 8 = "packets=")

let () =
  Alcotest.run "format"
    [
      ( "pretty",
        [
          Alcotest.test_case "instruction goldens" `Quick test_pretty_goldens;
          Alcotest.test_case "listing" `Quick test_listing_format;
          Alcotest.test_case "trace pp" `Quick test_trace_pp;
          Alcotest.test_case "sem pp" `Quick test_sem_pp_smoke;
          Alcotest.test_case "template pp" `Quick test_template_pp;
          Alcotest.test_case "stats pp" `Quick test_stats_pp;
        ] );
      ( "corners",
        [
          Alcotest.test_case "encode length" `Quick test_encode_length_agrees;
          Alcotest.test_case "decode at bounds" `Quick test_decode_at_bounds;
          Alcotest.test_case "assemble_insns" `Quick test_asm_assemble_insns;
          Alcotest.test_case "entry points limit" `Quick test_entry_points_limit;
          Alcotest.test_case "rng corners" `Quick test_rng_corners;
          Alcotest.test_case "reader seek" `Quick test_reader_seek_bounds;
        ] );
    ]
