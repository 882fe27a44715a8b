(* Tests for the IR and the semantic template matcher: the three Figure 1
   routines, register renaming, junk insertion, out-of-order code, constant
   routing, and the shell-spawn / alt-decoder / Code Red templates. *)

open Sanids_x86
open Sanids_ir
open Sanids_semantic

let i x = Asm.I x
let reg r = Insn.Reg r
let imm v = Insn.Imm v
let mem_of r = Insn.Mem (Insn.mem_base r)

let mov32 d s = Insn.Mov (Insn.S32bit, d, s)
let arith op d s = Insn.Arith (op, Insn.S32bit, d, s)
let arith8 op d s = Insn.Arith (op, Insn.S8bit, d, s)

(* ------------------------------------------------------------------ *)
(* The three equivalent decryption routines of Figure 1. *)

let figure_1a =
  Asm.assemble
    [
      Asm.Label "decode";
      i (arith8 Insn.Xor (mem_of Reg.EAX) (imm 0x95l));
      i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
      Asm.Loop_to "decode";
    ]

let figure_1b =
  Asm.assemble
    [
      Asm.Label "decode";
      i (mov32 (reg Reg.EBX) (imm 0x31l));
      i (arith Insn.Add (reg Reg.EBX) (imm 0x64l));
      i (arith8 Insn.Xor (mem_of Reg.EAX) (Insn.Reg8 Reg.BL));
      i (arith Insn.Add (reg Reg.EAX) (imm 1l));
      Asm.Loop_to "decode";
    ]

let figure_1c =
  Asm.assemble
    [
      Asm.Label "decode";
      i (mov32 (reg Reg.ECX) (imm 0l));
      i (Insn.Inc (Insn.S32bit, reg Reg.ECX));
      i (Insn.Inc (Insn.S32bit, reg Reg.ECX));
      Asm.Jmp "one";
      Asm.Label "two";
      i (arith Insn.Add (reg Reg.EAX) (imm 1l));
      Asm.Jmp "three";
      Asm.Label "one";
      i (mov32 (reg Reg.EBX) (imm 0x31l));
      i (arith Insn.Add (reg Reg.EBX) (imm 0x64l));
      i (arith8 Insn.Xor (mem_of Reg.EAX) (Insn.Reg8 Reg.BL));
      Asm.Jmp "two";
      Asm.Label "three";
      Asm.Loop_to "decode";
    ]

let decrypt_templates = Template_lib.xor_decrypt

let find_match templates code =
  match Matcher.scan ~templates code with [] -> None | r :: _ -> Some r

let check_matches name templates code =
  match find_match templates code with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: expected a template match" name

let check_no_match name templates code =
  match find_match templates code with
  | None -> ()
  | Some r ->
      Alcotest.failf "%s: unexpected match %s" name
        (Format.asprintf "%a" Matcher.pp_result r)

let key_of result =
  match List.assoc_opt "key" result.Matcher.const_bindings with
  | Some k -> k
  | None -> Alcotest.fail "no key binding"

let test_figure_1a () =
  match find_match decrypt_templates figure_1a with
  | Some r -> Alcotest.(check int32) "key folded" 0x95l (key_of r)
  | None -> Alcotest.fail "figure 1a must match decrypt-loop"

let test_figure_1b () =
  (* the key is 0x31 + 0x64 = 0x95, reachable only by constant folding *)
  match find_match decrypt_templates figure_1b with
  | Some r -> Alcotest.(check int32) "key folded through add" 0x95l (key_of r)
  | None -> Alcotest.fail "figure 1b must match decrypt-loop"

let test_figure_1c () =
  match find_match decrypt_templates figure_1c with
  | Some r -> Alcotest.(check int32) "key folded out of order" 0x95l (key_of r)
  | None -> Alcotest.fail "figure 1c must match decrypt-loop"

(* register renaming: same loop on edi/dl *)
let test_register_renaming () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        i (arith8 Insn.Xor (mem_of Reg.EDI) (imm 0x42l));
        i (Insn.Inc (Insn.S32bit, reg Reg.EDI));
        Asm.Loop_to "decode";
      ]
  in
  match find_match decrypt_templates code with
  | Some r ->
      let ptr = List.assoc "ptr" r.Matcher.reg_bindings in
      Alcotest.(check string) "ptr bound to edi" "edi" (Reg.name ptr)
  | None -> Alcotest.fail "renamed decoder must match"

(* junk insertion between the decoder's real instructions *)
let test_junk_insertion () =
  let junk =
    [
      i (mov32 (reg Reg.EDX) (imm 0x1234l));
      i (arith Insn.Add (reg Reg.EDX) (reg Reg.EDX));
      i Insn.Nop;
      i (Insn.Push_reg Reg.EDX);
      i (Insn.Pop_reg Reg.EDX);
    ]
  in
  let code =
    Asm.assemble
      ([ Asm.Label "decode" ] @ junk
      @ [ i (arith8 Insn.Xor (mem_of Reg.EAX) (imm 0x77l)) ]
      @ junk
      @ [ i (Insn.Inc (Insn.S32bit, reg Reg.EAX)) ]
      @ junk
      @ [ Asm.Loop_to "decode" ])
  in
  check_matches "junk-laden decoder" decrypt_templates code

(* the key routed through a push/pop stack round-trip *)
let test_stack_routed_key () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        i (Insn.Push_imm 0x33l);
        i (Insn.Pop_reg Reg.EBX);
        i (arith Insn.Add (reg Reg.EBX) (imm 0x11l));
        i (arith8 Insn.Xor (mem_of Reg.EAX) (Insn.Reg8 Reg.BL));
        i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
        Asm.Loop_to "decode";
      ]
  in
  match find_match decrypt_templates code with
  | Some r -> Alcotest.(check int32) "key via stack" 0x44l (key_of r)
  | None -> Alcotest.fail "stack-routed key must match"

(* xor with key 0 is a no-op loop, not a decoder: guard must reject *)
let test_zero_key_rejected () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        i (arith8 Insn.Xor (mem_of Reg.EAX) (imm 0l));
        i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
        Asm.Loop_to "decode";
      ]
  in
  check_no_match "zero key" decrypt_templates code

(* a loop whose body dereferences wild pointers cannot be a decoder:
   real engines' junk never touches memory through uninitialized
   registers (it would fault at run time) *)
let test_wild_deref_loop_rejected () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        (* junk that reads through an unrelated, unbound pointer *)
        i (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.DL, mem_of Reg.EDX));
        i (arith8 Insn.Xor (mem_of Reg.EAX) (imm 0x95l));
        i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
        Asm.Loop_to "decode";
      ]
  in
  check_no_match "wild deref in loop body" decrypt_templates code

(* a large fixed displacement off the walked pointer is an accident, not
   a decoder cell *)
let test_large_disp_rejected () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        i (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base_disp Reg.EAX 0x44l), imm 0x95l));
        i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
        Asm.Loop_to "decode";
      ]
  in
  check_no_match "large displacement" decrypt_templates code;
  (* while a small one is a legitimate spelling *)
  let near =
    Asm.assemble
      [
        Asm.Label "decode";
        i (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base_disp Reg.EAX 4l), imm 0x95l));
        i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
        Asm.Loop_to "decode";
      ]
  in
  check_matches "small displacement" decrypt_templates near

(* a string instruction's implicit pointer bump is not a standalone
   advance *)
let test_implicit_advance_rejected () =
  let code =
    Asm.assemble
      [
        Asm.Label "decode";
        i (arith8 Insn.Xor (mem_of Reg.EDI) (imm 0x95l));
        (* scasb bumps EDI as a side effect — must not satisfy the
           advance step on its own *)
        i Insn.Scasb;
        Asm.Loop_to "decode";
      ]
  in
  check_no_match "scasb as advance" decrypt_templates code

(* a forward loop-free xor is not a decryption loop *)
let test_no_back_edge_rejected () =
  let code =
    Encode.program
      [
        arith8 Insn.Xor (mem_of Reg.EAX) (imm 0x95l);
        Insn.Inc (Insn.S32bit, reg Reg.EAX);
        Insn.Ret;
      ]
  in
  check_no_match "no back edge" decrypt_templates code

(* benign-looking code: a memcpy-ish forward loop *)
let test_benign_copy_loop () =
  let code =
    Asm.assemble
      [
        Asm.Label "copy";
        i (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.DL, mem_of Reg.ESI));
        i (Insn.Mov (Insn.S8bit, mem_of Reg.EDI, Insn.Reg8 Reg.DL));
        i (Insn.Inc (Insn.S32bit, reg Reg.ESI));
        i (Insn.Inc (Insn.S32bit, reg Reg.EDI));
        Asm.Loop_to "copy";
      ]
  in
  check_no_match "copy loop vs xor-decrypt" decrypt_templates code

(* ------------------------------------------------------------------ *)
(* Alternate (load/transform/store) decoder — Figure 7 family. *)

let alt_code =
  Asm.assemble
    [
      Asm.Label "top";
      i (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.BL, mem_of Reg.EAX));
      i (Insn.Not (Insn.S8bit, Insn.Reg8 Reg.BL));
      i (arith8 Insn.Xor (Insn.Reg8 Reg.BL) (imm 0x42l));
      i (Insn.Mov (Insn.S8bit, mem_of Reg.EAX, Insn.Reg8 Reg.BL));
      i (Insn.Inc (Insn.S32bit, reg Reg.EAX));
      Asm.Loop_to "top";
    ]

let test_alt_decoder () =
  check_matches "alt decoder" Template_lib.alt_decoder alt_code

let test_alt_decoder_not_matched_by_xor_template () =
  (* the paper's 68% experiment: the xor template alone misses this *)
  check_no_match "alt decoder vs xor template" decrypt_templates alt_code

let test_alt_decoder_with_movzx_load () =
  (* a decoder that loads its working byte with movzx (zero-extension)
     still exhibits the load/transform/store behaviour *)
  let code =
    Asm.assemble
      [
        Asm.Label "top";
        i (Insn.Movzx (Reg.EBX, mem_of Reg.ESI));
        i (arith8 Insn.Xor (Insn.Reg8 Reg.BL) (imm 0x5Al));
        i (Insn.Mov (Insn.S8bit, mem_of Reg.ESI, Insn.Reg8 Reg.BL));
        i (Insn.Inc (Insn.S32bit, reg Reg.ESI));
        Asm.Loop_to "top";
      ]
  in
  check_matches "movzx-based decoder" Template_lib.alt_decoder code

let test_copy_loop_not_alt_decoder () =
  (* load+store with no transform must not satisfy the alt decoder *)
  let code =
    Asm.assemble
      [
        Asm.Label "copy";
        i (Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.DL, mem_of Reg.ESI));
        i (Insn.Mov (Insn.S8bit, mem_of Reg.ESI, Insn.Reg8 Reg.DL));
        i (Insn.Inc (Insn.S32bit, reg Reg.ESI));
        Asm.Loop_to "copy";
      ]
  in
  check_no_match "pure copy loop" Template_lib.alt_decoder code

(* ------------------------------------------------------------------ *)
(* Shell spawning — Figure 6. *)

let execve_shellcode =
  Encode.program
    [
      arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
      Insn.Push_reg Reg.EAX;
      Insn.Push_imm 0x68732f2fl;
      Insn.Push_imm 0x6e69622fl;
      mov32 (reg Reg.EBX) (reg Reg.ESP);
      Insn.Push_reg Reg.EAX;
      Insn.Push_reg Reg.EBX;
      mov32 (reg Reg.ECX) (reg Reg.ESP);
      Insn.Cdq;
      Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 11l);
      Insn.Int 0x80;
    ]

let test_shell_spawn () =
  check_matches "execve shellcode" Template_lib.shell_spawn execve_shellcode

let test_shell_spawn_requires_eleven () =
  (* same structure but EAX = 4 (write syscall): must not match *)
  let code =
    Encode.program
      [
        arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 4l);
        Insn.Int 0x80;
      ]
  in
  check_no_match "write syscall" Template_lib.shell_spawn code

let test_shell_spawn_folded_eax () =
  (* EAX reaches 11 through arithmetic: 3 + 8 *)
  let code =
    Encode.program
      [
        mov32 (reg Reg.EAX) (imm 3l);
        arith Insn.Add (reg Reg.EAX) (imm 8l);
        Insn.Int 0x80;
      ]
  in
  check_matches "folded eax" Template_lib.shell_spawn code

let test_shell_spawn_memory_routed_string () =
  (* the "/bin//sh" words are pushed encrypted and fixed up in place —
     the Stack_const step must read the folded slot *)
  let code =
    Encode.program
      [
        arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
        Insn.Push_reg Reg.EAX;
        Insn.Push_imm (Int32.logxor 0x68732f2fl 0x5A5A5A5Al);
        arith Insn.Xor (mem_of Reg.ESP) (imm 0x5A5A5A5Al);
        Insn.Push_imm (Int32.sub 0x6e69622fl 0x01010101l);
        arith Insn.Add (mem_of Reg.ESP) (imm 0x01010101l);
        mov32 (reg Reg.EBX) (reg Reg.ESP);
        Insn.Push_reg Reg.EAX;
        Insn.Push_reg Reg.EBX;
        mov32 (reg Reg.ECX) (reg Reg.ESP);
        Insn.Cdq;
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 11l);
        Insn.Int 0x80;
      ]
  in
  (* matched by the string-building variants, not only the bare-syscall
     fallback: check a Stack_const-bearing variant in isolation *)
  let string_variant = List.hd Template_lib.shell_spawn in
  Alcotest.(check bool) "stack-const variant matches" true
    (Matcher.satisfies string_variant code)

let test_port_bind_shell () =
  let sys ?bl al =
    (match bl with
    | Some b ->
        [
          arith Insn.Xor (reg Reg.EBX) (reg Reg.EBX);
          Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.BL, imm b);
        ]
    | None -> [])
    @ [
        arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm al);
        Insn.Int 0x80;
      ]
  in
  let code =
    Encode.program
      (sys ~bl:1l 102l @ sys ~bl:2l 102l @ sys ~bl:4l 102l @ sys 63l
      @ [
          arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
          Insn.Push_reg Reg.EAX;
          Insn.Push_imm 0x68732f2fl;
          Insn.Push_imm 0x6e69622fl;
          mov32 (reg Reg.EBX) (reg Reg.ESP);
        ]
      @ [ Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 11l); Insn.Int 0x80 ])
  in
  check_matches "port bind shell" Template_lib.port_bind_shell code;
  (* a plain execve shellcode is not a port binder *)
  check_no_match "plain execve is not port-bind" Template_lib.port_bind_shell
    execve_shellcode

(* Stack constants follow ESP arithmetic.  Each program's verdict is the
   one the emulator implies: EAX at the [int 0x80] decides whether it is
   an execve. *)

let eax_at_syscall code =
  let emu = Emulator.create ~code () in
  match Emulator.run ~max_steps:64 emu with
  | Emulator.Syscall 0x80, _ -> Emulator.reg emu Reg.EAX
  | _ -> Alcotest.fail "int 0x80 not reached"

let check_esp_program ?(templates = Template_lib.shell_spawn) name ~eax ~execve insns =
  let code = Encode.program insns in
  Alcotest.(check int32) (name ^ ": emulator EAX") eax (eax_at_syscall code);
  (if execve then check_matches else check_no_match) name templates code

let test_esp_add_skips_slot () =
  check_esp_program "add esp,4 drops the top slot" ~eax:0xbl ~execve:true
    [
      Insn.Push_imm 0xbl;
      Insn.Push_imm 1l;
      arith Insn.Add (reg Reg.ESP) (imm 4l);
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]

let test_esp_add_exposes_older_push () =
  check_esp_program "add esp,4 exposes the older push" ~eax:1l ~execve:false
    [
      Insn.Push_imm 1l;
      Insn.Push_imm 0xbl;
      arith Insn.Add (reg Reg.ESP) (imm 4l);
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]

let test_esp_misaligned () =
  check_esp_program "inc esp misaligns the stack" ~eax:0l ~execve:false
    [
      Insn.Push_imm 0xbl;
      Insn.Inc (Insn.S32bit, reg Reg.ESP);
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]

(* Reserving stack space with one large [sub esp]: the slot model holds
   at most 128 slots and must forget the deepest ones, never the top. *)
let test_esp_reserve () =
  check_esp_program "sub esp,0x1fc then two pushes" ~eax:0xbl ~execve:true
    [
      arith Insn.Sub (reg Reg.ESP) (imm 0x1fcl);
      Insn.Push_imm 1l;
      Insn.Push_imm 0xbl;
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ];
  check_esp_program "sub esp,0x1fc then two pushes, swapped" ~eax:1l ~execve:false
    [
      arith Insn.Sub (reg Reg.ESP) (imm 0x1fcl);
      Insn.Push_imm 0xbl;
      Insn.Push_imm 1l;
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ];
  check_esp_program "sub esp,0x200 then a push" ~eax:0xbl ~execve:true
    [
      arith Insn.Sub (reg Reg.ESP) (imm 0x200l);
      Insn.Push_imm 0xbl;
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]

(* ESP written through a register: a known amount moves the slots, an
   unknown one forgets them. *)
let test_esp_through_register () =
  let add_esp_ecx first second =
    [
      Insn.Push_imm first;
      Insn.Push_imm second;
      Insn.Push_imm 4l;
      Insn.Pop_reg Reg.ECX;
      arith Insn.Add (reg Reg.ESP) (reg Reg.ECX);
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]
  in
  check_esp_program "add esp,ecx drops the top slot" ~eax:0xbl ~execve:true
    (add_esp_ecx 0xbl 1l);
  check_esp_program "add esp,ecx exposes the older push" ~eax:1l ~execve:false
    (add_esp_ecx 1l 0xbl);
  check_esp_program "mov esp,ebx restores a saved ESP" ~eax:1l ~execve:false
    [
      Insn.Push_imm 1l;
      mov32 (reg Reg.EBX) (reg Reg.ESP);
      Insn.Push_imm 0xbl;
      mov32 (reg Reg.ESP) (reg Reg.EBX);
      Insn.Pop_reg Reg.EAX;
      Insn.Int 0x80;
    ]

(* Zeroing by two masks with no set bit in common, the usual route when
   xor is unavailable: the value must fold to 0 through the known bits. *)
let test_mask_chain_zeroes () =
  let zero_eax =
    [ arith Insn.And (reg Reg.EAX) (imm 0x454e4f4al); arith Insn.And (reg Reg.EAX) (imm 0x3a313035l) ]
  in
  let syscall_only = [ List.nth Template_lib.shell_spawn 2 ] in
  check_esp_program ~templates:syscall_only "and/and then add eax,0xb" ~eax:0xbl
    ~execve:true
    (zero_eax @ [ arith Insn.Add (reg Reg.EAX) (imm 0xbl); Insn.Int 0x80 ]);
  check_esp_program ~templates:syscall_only "and al/and al then add al,0xb" ~eax:0xbl
    ~execve:true
    [
      arith8 Insn.And (Insn.Reg8 Reg.AL) (imm 0x0fl);
      arith8 Insn.And (Insn.Reg8 Reg.AL) (imm 0xf0l);
      arith8 Insn.Add (Insn.Reg8 Reg.AL) (imm 0xbl);
      Insn.Int 0x80;
    ];
  (* "/bin" and "//sh" reached by subtracting from the zeroed register *)
  check_esp_program ~templates:[ List.hd Template_lib.shell_spawn ]
    "and/and then sub to the string words" ~eax:0xbl ~execve:true
    (zero_eax
    @ [
        Insn.Push_reg Reg.EAX;
        arith Insn.Sub (reg Reg.EAX) (imm 0x978cd0d1l);
        Insn.Push_reg Reg.EAX;
        arith Insn.Sub (reg Reg.EAX) (imm 0xfa09cd00l);
        Insn.Push_reg Reg.EAX;
        mov32 (reg Reg.EBX) (reg Reg.ESP);
      ]
    @ zero_eax
    @ [ arith Insn.Add (reg Reg.EAX) (imm 0xbl); Insn.Int 0x80 ])

(* Oracle: on straight-line stack programs, a syscall-only shell-spawn
   match must sit on an [int 0x80] the emulator reaches with AL = 11.
   Programs that fault before their final [int3] are discarded. *)

let syscall_only_spawn =
  List.filter (fun (t : Template.t) -> List.length t.Template.steps = 1) Template_lib.shell_spawn

let gen_esp_insn =
  let open QCheck2.Gen in
  let const_g =
    oneof [ oneofl [ 0xbl; 0xbl; 1l; 0x10bl; 4l; 8l ]; map Int32.of_int (int_bound 0xFFFF) ]
  in
  let byte_g = oneof [ oneofl [ 0xbl; 1l ]; map Int32.of_int (int_bound 0xFF) ] in
  frequency
    [
      (4, map (fun v -> Insn.Push_imm v) const_g);
      (1, map (fun r -> Insn.Push_reg r) (oneofl [ Reg.EAX; Reg.EBX ]));
      (3, map (fun r -> Insn.Pop_reg r) (oneofl [ Reg.EAX; Reg.EAX; Reg.EBX; Reg.ECX ]));
      ( 3,
        let* op = oneofl [ Insn.Add; Insn.Add; Insn.Sub ] and* k = int_range 1 2 in
        return (arith op (reg Reg.ESP) (imm (Int32.of_int (4 * k)))) );
      (1, map (fun n -> arith Insn.Sub (reg Reg.ESP) (imm n)) (oneofl [ 0x1fcl; 0x200l ]));
      (1, return (arith Insn.Add (reg Reg.ESP) (reg Reg.ECX)));
      (1, return (mov32 (reg Reg.EBX) (reg Reg.ESP)));
      (1, return (mov32 (reg Reg.ESP) (reg Reg.EBX)));
      (1, return (Insn.Inc (Insn.S32bit, reg Reg.ESP)));
      (1, map (fun v -> Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm v)) byte_g);
      (1, return (arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX)));
      (1, map (fun v -> arith8 Insn.Xor (Insn.Reg8 Reg.AL) (imm v)) byte_g);
      (2, return (Insn.Int 0x80));
    ]

(* AL at every offset the emulator executes, or [None] if the run ends
   anywhere but the program's last instruction. *)
let al_by_offset code =
  let emu = Emulator.create ~code () in
  let seen = Hashtbl.create 16 in
  let rec go n =
    let pc = Int32.to_int (Int32.sub (Emulator.eip emu) Emulator.code_base) in
    Hashtbl.replace seen pc (Int32.to_int (Emulator.reg emu Reg.EAX) land 0xFF);
    match Emulator.step emu with
    | Emulator.Running | Emulator.Syscall _ -> if n > 0 then go (n - 1) else None
    | Emulator.Halted _ -> if pc = String.length code - 1 then Some seen else None
  in
  go 64

let prop_esp_spawn_sound =
  QCheck2.Test.make ~name:"syscall-only shell-spawn implies emulated AL = 11" ~count:1000
    ~print:(fun is -> Pretty.program_to_string is)
    QCheck2.Gen.(list_size (int_range 2 10) gen_esp_insn)
    (fun insns ->
      let code = Encode.program (insns @ [ Insn.Int3 ]) in
      match al_by_offset code with
      | None -> QCheck2.assume_fail ()
      | Some al ->
          List.for_all
            (fun (r : Matcher.result) ->
              match r.Matcher.offsets with
              | [ off ] -> Hashtbl.find_opt al off = Some 11
              | _ -> false)
            (Matcher.scan ~entries:[ 0 ] ~templates:syscall_only_spawn code))

(* ------------------------------------------------------------------ *)
(* Code Red II vector. *)

let test_code_red_ii () =
  let code =
    Encode.program
      [
        Insn.Nop;
        Insn.Push_imm 0x7801cbd3l;
        Insn.Nop;
        Insn.Push_imm 0x7801cbd3l;
        Insn.Nop;
        Insn.Push_imm 0x7801cbd3l;
      ]
  in
  check_matches "code red ii" Template_lib.code_red_ii code;
  let once = Encode.program [ Insn.Push_imm 0x7801cbd3l; Insn.Ret ] in
  check_no_match "single occurrence" Template_lib.code_red_ii once

(* ------------------------------------------------------------------ *)
(* IR unit tests *)

let test_lift_normalization () =
  let open Sem in
  let advance_of i =
    match lift i with
    | [| S_advance { reg; amount; _ } |] -> (reg, amount)
    | _ -> Alcotest.fail "expected S_advance"
  in
  Alcotest.(check bool) "inc" true (advance_of (Insn.Inc (Insn.S32bit, reg Reg.EAX)) = (Reg.EAX, 1l));
  Alcotest.(check bool) "add imm" true
    (advance_of (arith Insn.Add (reg Reg.EAX) (imm 1l)) = (Reg.EAX, 1l));
  Alcotest.(check bool) "sub -1" true
    (advance_of (arith Insn.Sub (reg Reg.EAX) (imm (-1l))) = (Reg.EAX, 1l));
  Alcotest.(check bool) "lea eax,[eax+1]" true
    (advance_of (Insn.Lea (Reg.EAX, Insn.mem_base_disp Reg.EAX 1l)) = (Reg.EAX, 1l))

let test_lift_zeroing_idiom () =
  match Sem.lift (arith Insn.Xor (reg Reg.EDX) (reg Reg.EDX)) with
  | [| Sem.S_set { dst = Reg.EDX; src = Sem.Vconst 0l; _ } |] -> ()
  | _ -> Alcotest.fail "xor edx,edx must lift to edx := 0"

let test_lift_lods () =
  match Sem.lift Insn.Lodsb with
  | [| Sem.S_load { dst = Reg.EAX; ptr = Reg.ESI; _ }; Sem.S_advance { reg = Reg.ESI; amount = 1l; implicit = true } |]
    -> ()
  | _ -> Alcotest.fail "lodsb must lift to load + advance"

(* Constant folding reads: Absint's state read-outs are what the
   matcher's constant-bearing steps consume. *)

let fold insns = List.fold_left Absint.step_insn Absint.initial insns

let test_absint_byte_merge () =
  let s =
    fold
      [
        arith Insn.Xor (reg Reg.EAX) (reg Reg.EAX);
        Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 11l);
      ]
  in
  Alcotest.(check (option int32)) "eax fully known" (Some 11l) (Absint.reg32 s Reg.EAX)

let test_absint_partial_low8 () =
  (* only the low byte is known *)
  let s = fold [ Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, imm 11l) ] in
  Alcotest.(check (option int32)) "eax not fully known" None (Absint.reg32 s Reg.EAX);
  Alcotest.(check (option int)) "al known" (Some 11) (Absint.reg_low8 s Reg.EAX);
  Alcotest.(check (option int)) "al known as an operand" (Some 11)
    (Absint.value_low8 s (Sem.Vreg Reg.EAX))

let test_absint_stack_slots () =
  (* fix the value up in place, then read it back three ways *)
  let s =
    fold
      [
        Insn.Push_imm 0x100l;
        Insn.Arith (Insn.Xor, Insn.S32bit, Insn.Mem (Insn.mem_base Reg.ESP), imm 0x0FFl);
      ]
  in
  Alcotest.(check (option int32)) "slot folded" (Some 0x1FFl) (Absint.slot_value s 0);
  let s =
    Absint.step_insn s
      (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EBX, Insn.Mem (Insn.mem_base Reg.ESP)))
  in
  Alcotest.(check (option int32)) "slot read" (Some 0x1FFl) (Absint.reg32 s Reg.EBX);
  let s = Absint.step_insn s (Insn.Pop_reg Reg.ECX) in
  Alcotest.(check (option int32)) "pop agrees" (Some 0x1FFl) (Absint.reg32 s Reg.ECX)

let test_absint_deep_slot () =
  let s =
    fold
      [
        Insn.Push_imm 0xAAl;
        Insn.Push_imm 0xBBl;
        Insn.Mov (Insn.S32bit, Insn.Reg Reg.ESI, Insn.Mem (Insn.mem_base_disp Reg.ESP 4l));
      ]
  in
  Alcotest.(check (option int32)) "[esp+4] is the older push" (Some 0xAAl)
    (Absint.reg32 s Reg.ESI);
  (* a store past the tracked slots is simply ignored by the slot model
     (the concrete emulator cross-check in test_emulator covers aliasing
     soundness for the code our generators emit) *)
  let s =
    Absint.step_insn s
      (Insn.Mov (Insn.S32bit, Insn.Mem (Insn.mem_base_disp Reg.ESP 12l), imm 1l))
  in
  Alcotest.(check (option int32)) "out-of-range slot untouched" (Some 0xAAl)
    (Absint.reg32 s Reg.ESI)

let test_absint_stack_roundtrip () =
  let s = fold [ Insn.Push_imm 0xBEEFl; Insn.Pop_reg Reg.ESI ] in
  Alcotest.(check (option int32)) "const through stack" (Some 0xBEEFl)
    (Absint.reg32 s Reg.ESI)

let test_absint_xchg () =
  let s = fold [ mov32 (reg Reg.EAX) (imm 5l); Insn.Xchg (Reg.EAX, Reg.EBX) ] in
  Alcotest.(check (option int32)) "ebx got 5" (Some 5l) (Absint.reg32 s Reg.EBX);
  Alcotest.(check (option int32)) "eax unknown" None (Absint.reg32 s Reg.EAX)

let test_absint_not_rol () =
  let s = fold [ mov32 (reg Reg.EBX) (imm 0x000000FFl); Insn.Not (Insn.S32bit, reg Reg.EBX) ] in
  Alcotest.(check (option int32)) "not" (Some 0xFFFFFF00l) (Absint.reg32 s Reg.EBX);
  let s = Absint.step_insn s (Insn.Shift (Insn.Rol, Insn.S32bit, reg Reg.EBX, 8)) in
  Alcotest.(check (option int32)) "rol 8" (Some 0xFFFF00FFl) (Absint.reg32 s Reg.EBX)

let test_absint_load_clobbers () =
  let s = fold [ mov32 (reg Reg.EAX) (imm 5l); mov32 (reg Reg.EAX) (mem_of Reg.EBX) ] in
  Alcotest.(check (option int32)) "load clobbers" None (Absint.reg32 s Reg.EAX)

let test_trace_follows_jmp () =
  let code =
    Asm.assemble
      [
        i Insn.Nop;
        Asm.Jmp "skip";
        i Insn.Int3;
        (* unreachable *)
        Asm.Label "skip";
        i Insn.Ret;
      ]
  in
  let t = Trace.build code ~entry:0 in
  let insns = Array.to_list (Array.map (fun (s : Trace.step) -> s.Trace.insn) t) in
  Alcotest.(check bool) "int3 skipped" true
    (not (List.exists (fun x -> x = Insn.Int3) insns));
  Alcotest.(check bool) "ends with ret" true
    (match List.rev insns with Insn.Ret :: _ -> true | _ -> false)

let test_trace_stops_on_revisit () =
  let code = Asm.assemble [ Asm.Label "top"; i Insn.Nop; Asm.Jmp "top" ] in
  let t = Trace.build code ~entry:0 in
  Alcotest.(check int) "nop + jmp only" 2 (Array.length t)

let test_trace_bounds () =
  let t = Trace.build "\x90\x90" ~entry:99 in
  Alcotest.(check int) "out of range entry" 0 (Array.length t)

let test_entry_points () =
  let code = Encode.program [ Insn.Nop; Insn.Ret; Insn.Nop; Insn.Nop ] in
  let eps = Trace.entry_points code in
  Alcotest.(check bool) "has 0" true (List.mem 0 eps);
  Alcotest.(check bool) "has post-ret restart" true (List.mem 2 eps)

(* ------------------------------------------------------------------ *)
(* Properties: random junk and benign strings never match the library;
   decoders survive random junk prefix/suffix. *)

let prop_random_bytes_rarely_match =
  QCheck2.Test.make ~name:"random bytes never satisfy decrypt-loop" ~count:60
    QCheck2.Gen.(string_size (int_range 20 200))
    (fun s -> not (List.exists (fun t -> Matcher.satisfies t s) decrypt_templates))

let prop_ascii_never_matches =
  QCheck2.Test.make ~name:"printable ascii never satisfies any template" ~count:60
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0x20 0x7e)) (int_range 20 300))
    (fun s ->
      not (List.exists (fun t -> Matcher.satisfies t s) Template_lib.default_set))

let prop_decoder_survives_padding =
  QCheck2.Test.make ~name:"decoder still matches with random padding" ~count:40
    QCheck2.Gen.(pair (string_size (int_bound 40)) (string_size (int_bound 40)))
    (fun (pre, post) ->
      let code = pre ^ figure_1a ^ post in
      List.exists (fun t -> Matcher.satisfies t code) decrypt_templates)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_bytes_rarely_match;
      prop_ascii_never_matches;
      prop_decoder_survives_padding;
      prop_esp_spawn_sound;
    ]

let () =
  Alcotest.run "semantic"
    [
      ( "figure1",
        [
          Alcotest.test_case "1a plain loop" `Quick test_figure_1a;
          Alcotest.test_case "1b folded key" `Quick test_figure_1b;
          Alcotest.test_case "1c out of order" `Quick test_figure_1c;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "register renaming" `Quick test_register_renaming;
          Alcotest.test_case "junk insertion" `Quick test_junk_insertion;
          Alcotest.test_case "stack-routed key" `Quick test_stack_routed_key;
          Alcotest.test_case "zero key rejected" `Quick test_zero_key_rejected;
          Alcotest.test_case "no back edge rejected" `Quick test_no_back_edge_rejected;
          Alcotest.test_case "wild deref rejected" `Quick test_wild_deref_loop_rejected;
          Alcotest.test_case "large disp rejected" `Quick test_large_disp_rejected;
          Alcotest.test_case "implicit advance rejected" `Quick test_implicit_advance_rejected;
          Alcotest.test_case "benign copy loop" `Quick test_benign_copy_loop;
        ] );
      ( "alt-decoder",
        [
          Alcotest.test_case "matches" `Quick test_alt_decoder;
          Alcotest.test_case "not matched by xor template" `Quick
            test_alt_decoder_not_matched_by_xor_template;
          Alcotest.test_case "movzx load" `Quick test_alt_decoder_with_movzx_load;
          Alcotest.test_case "copy loop rejected" `Quick test_copy_loop_not_alt_decoder;
        ] );
      ( "shell-spawn",
        [
          Alcotest.test_case "classic execve" `Quick test_shell_spawn;
          Alcotest.test_case "wrong syscall rejected" `Quick test_shell_spawn_requires_eleven;
          Alcotest.test_case "folded eax" `Quick test_shell_spawn_folded_eax;
          Alcotest.test_case "memory-routed string" `Quick test_shell_spawn_memory_routed_string;
          Alcotest.test_case "port bind" `Quick test_port_bind_shell;
          Alcotest.test_case "esp add skips a slot" `Quick test_esp_add_skips_slot;
          Alcotest.test_case "esp add exposes older push" `Quick
            test_esp_add_exposes_older_push;
          Alcotest.test_case "esp misaligned" `Quick test_esp_misaligned;
          Alcotest.test_case "esp reserve" `Quick test_esp_reserve;
          Alcotest.test_case "esp through a register" `Quick test_esp_through_register;
          Alcotest.test_case "mask chain zeroes" `Quick test_mask_chain_zeroes;
        ] );
      ("code-red", [ Alcotest.test_case "vector" `Quick test_code_red_ii ]);
      ( "ir",
        [
          Alcotest.test_case "advance normalization" `Quick test_lift_normalization;
          Alcotest.test_case "zeroing idiom" `Quick test_lift_zeroing_idiom;
          Alcotest.test_case "lods decomposition" `Quick test_lift_lods;
          Alcotest.test_case "byte merge" `Quick test_absint_byte_merge;
          Alcotest.test_case "partial low8" `Quick test_absint_partial_low8;
          Alcotest.test_case "stack roundtrip" `Quick test_absint_stack_roundtrip;
          Alcotest.test_case "stack slots" `Quick test_absint_stack_slots;
          Alcotest.test_case "deep slot" `Quick test_absint_deep_slot;
          Alcotest.test_case "xchg" `Quick test_absint_xchg;
          Alcotest.test_case "not/rol" `Quick test_absint_not_rol;
          Alcotest.test_case "load clobbers" `Quick test_absint_load_clobbers;
        ] );
      ( "trace",
        [
          Alcotest.test_case "follows jmp" `Quick test_trace_follows_jmp;
          Alcotest.test_case "stops on revisit" `Quick test_trace_stops_on_revisit;
          Alcotest.test_case "bounds" `Quick test_trace_bounds;
          Alcotest.test_case "entry points" `Quick test_entry_points;
        ] );
      ("properties", properties);
    ]
