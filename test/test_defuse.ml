(* Tests for def-use chains and dead-write (junk) detection. *)

open Sanids_x86
open Sanids_ir

let reg r = Insn.Reg r
let imm v = Insn.Imm v
let mov32 d s = Insn.Mov (Insn.S32bit, d, s)
let arith op d s = Insn.Arith (op, Insn.S32bit, d, s)

let trace_of insns = Trace.build (Encode.program insns) ~entry:0

let test_simple_chain () =
  (* 0: mov eax, 5       defines eax
     1: mov ebx, eax     reads eax (def at 0), defines ebx
     2: add ebx, 1       rmw ebx (def at 1)
     3: int3 *)
  let t =
    Defuse.analyze
      (trace_of
         [
           mov32 (reg Reg.EAX) (imm 5l);
           mov32 (reg Reg.EBX) (reg Reg.EAX);
           arith Insn.Add (reg Reg.EBX) (imm 1l);
           Insn.Int3;
         ])
  in
  Alcotest.(check bool) "mov ebx,eax reads eax from 0" true
    (List.mem (Reg.EAX, Defuse.At 0) (Defuse.reads t 1));
  Alcotest.(check bool) "add reads ebx from 1" true
    (List.mem (Reg.EBX, Defuse.At 1) (Defuse.reads t 2));
  Alcotest.(check (list int)) "uses of def at 0" [ 1 ] (Defuse.uses_of t 0);
  Alcotest.(check (list int)) "uses of def at 1" [ 2 ] (Defuse.uses_of t 1)

let test_entry_def () =
  let t = Defuse.analyze (trace_of [ mov32 (reg Reg.EBX) (reg Reg.ESI); Insn.Int3 ]) in
  Alcotest.(check bool) "esi live at entry" true
    (List.mem (Reg.ESI, Defuse.Entry) (Defuse.reads t 0))

let test_dead_write_detection () =
  (* 0: mov edx, 7     dead: overwritten at 2 without a read
     1: mov eax, 1     alive: read by the syscall
     2: mov edx, 9     alive: read by the syscall (int reads edx)
     3: int 0x80 *)
  let t =
    Defuse.analyze
      (trace_of
         [
           mov32 (reg Reg.EDX) (imm 7l);
           mov32 (reg Reg.EAX) (imm 1l);
           mov32 (reg Reg.EDX) (imm 9l);
           Insn.Int 0x80;
         ])
  in
  Alcotest.(check bool) "first edx write dead" true (Defuse.is_dead_write t 0);
  Alcotest.(check bool) "eax write alive" false (Defuse.is_dead_write t 1);
  Alcotest.(check bool) "second edx write alive" false (Defuse.is_dead_write t 2);
  Alcotest.(check (float 0.01)) "one of four dead" 0.25 (Defuse.dead_fraction t)

let test_side_effects_never_dead () =
  let t =
    Defuse.analyze
      (trace_of
         [
           mov32 (reg Reg.EDI) (imm 0x08048100l);
           mov32 (Insn.Mem (Insn.mem_base Reg.EDI)) (imm 5l);
           Insn.Push_imm 3l;
           Insn.Pop_reg Reg.ESI;
           Insn.Int3;
         ])
  in
  (* the store writes no register but has a memory side effect *)
  Alcotest.(check bool) "store not dead" false (Defuse.is_dead_write t 1);
  Alcotest.(check bool) "push not dead" false (Defuse.is_dead_write t 2)

let test_rmw_is_a_use () =
  (* inc consumes the previous value, so the initial write is alive even
     though nothing else reads it before the final overwrite *)
  let t =
    Defuse.analyze
      (trace_of
         [
           mov32 (reg Reg.EBX) (imm 1l);
           Insn.Inc (Insn.S32bit, reg Reg.EBX);
           mov32 (reg Reg.EBX) (imm 0l);
           Insn.Int3;
         ])
  in
  Alcotest.(check bool) "initial write used by inc" false (Defuse.is_dead_write t 0);
  (* the inc's own result is then clobbered: dead *)
  Alcotest.(check bool) "inc result dead" true (Defuse.is_dead_write t 1);
  (* lodsb writes only AL, so EAX's upper 24 bits reach the push *)
  let t =
    Defuse.analyze
      (trace_of [ mov32 (reg Reg.EAX) (imm 0x11223344l); Insn.Lodsb; Insn.Push_reg Reg.EAX ])
  in
  Alcotest.(check bool) "lodsb reads eax from 0" true
    (List.mem (Reg.EAX, Defuse.At 0) (Defuse.reads t 1));
  Alcotest.(check bool) "write before lodsb used" false (Defuse.is_dead_write t 0);
  (* an 8-bit multiply writes only AX: EDX keeps the 7 the push reads *)
  let t =
    Defuse.analyze
      (trace_of
         [
           mov32 (reg Reg.EDX) (imm 7l);
           Insn.Imul (Insn.S8bit, Insn.Reg8 Reg.CL);
           Insn.Push_reg Reg.EDX;
         ])
  in
  Alcotest.(check bool) "write before an 8-bit imul used" false (Defuse.is_dead_write t 0)

let test_byte_div_reads_only_ax () =
  (* an 8-bit divide reads AX and writes AL and AH: EDX's 7 is never
     read before the overwrite *)
  List.iter
    (fun (name, div) ->
      let t =
        Defuse.analyze
          (trace_of
             [ mov32 (reg Reg.EDX) (imm 7l); div; mov32 (reg Reg.EDX) (imm 0l); Insn.Int3 ])
      in
      Alcotest.(check bool) ("edx write before " ^ name ^ " dead") true (Defuse.is_dead_write t 0))
    [
      ("div cl", Insn.Div (Insn.S8bit, Insn.Reg8 Reg.CL));
      ("idiv cl", Insn.Idiv (Insn.S8bit, Insn.Reg8 Reg.CL));
    ]

let test_junk_measurement_on_engine_output () =
  (* the dead-write fraction of heavily junked decoders exceeds that of
     junk-free ones: def-use sees the garbage from the outside *)
  let payload = (Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code in
  let fraction junk seed =
    let rng = Rng.create seed in
    let g =
      Sanids_polymorph.Admmutate.generate ~family:Sanids_polymorph.Admmutate.Xor_loop
        ~junk ~out_of_order:false rng ~payload
    in
    let code = g.Sanids_polymorph.Admmutate.code in
    let trace = Trace.build code ~entry:g.Sanids_polymorph.Admmutate.sled_len in
    Defuse.dead_fraction (Defuse.analyze trace)
  in
  let avg f = (f 0xD1L +. f 0xD2L +. f 0xD3L) /. 3.0 in
  let clean = avg (fraction 0) in
  let junky = avg (fraction 12) in
  Alcotest.(check bool)
    (Printf.sprintf "junked decoders show more dead writes (%.2f > %.2f)" junky clean)
    true (junky > clean)

let test_index_bounds () =
  let t = Defuse.analyze (trace_of [ Insn.Nop ]) in
  match Defuse.reads t 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected bounds check"

let () =
  Alcotest.run "defuse"
    [
      ( "chains",
        [
          Alcotest.test_case "simple chain" `Quick test_simple_chain;
          Alcotest.test_case "entry defs" `Quick test_entry_def;
          Alcotest.test_case "bounds" `Quick test_index_bounds;
        ] );
      ( "dead writes",
        [
          Alcotest.test_case "detection" `Quick test_dead_write_detection;
          Alcotest.test_case "side effects never dead" `Quick test_side_effects_never_dead;
          Alcotest.test_case "rmw is a use" `Quick test_rmw_is_a_use;
          Alcotest.test_case "8-bit div reads only AX" `Quick test_byte_div_reads_only_ax;
          Alcotest.test_case "junk measurement" `Quick test_junk_measurement_on_engine_output;
        ] );
    ]
