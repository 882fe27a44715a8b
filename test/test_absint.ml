(* The abstract-interpretation layer and the static-refutation
   pre-stage: value-domain unit pins, a qcheck over-approximation
   oracle against the validated emulator, the must-refute soundness
   oracle against the concrete confirmer, and the corpora regressions
   (decoys statically refuted; true decoders always left to the
   emulator). *)

module Insn = Sanids_x86.Insn
module Reg = Sanids_x86.Reg
module Encode = Sanids_x86.Encode
module Emulator = Sanids_x86.Emulator
module Absint = Sanids_ir.Absint
module Cfg = Sanids_ir.Cfg
module V = Sanids_ir.Absint.V
module Confirm = Sanids_confirm.Confirm
module Static_refute = Sanids_confirm.Static_refute
module Admmutate = Sanids_polymorph.Admmutate
module Clet = Sanids_polymorph.Clet
module Shellcodes = Sanids_exploits.Shellcodes
module Adversarial = Sanids_workload.Adversarial

let shellcode = (Shellcodes.find "classic").Shellcodes.code

(* ------------------------------------------------------------------ *)
(* V: the interval × known-bits × taint domain *)

let test_v_consts () =
  let c = V.const in
  Alcotest.(check (option int32)) "add" (Some 5l) (V.is_const (V.add (c 2l) (c 3l)));
  Alcotest.(check (option int32)) "sub wraps" (Some 0xFFFFFFFFl)
    (V.is_const (V.sub (c 2l) (c 3l)));
  Alcotest.(check (option int32)) "xor" (Some 6l) (V.is_const (V.logxor (c 5l) (c 3l)));
  Alcotest.(check (option int32)) "and" (Some 1l) (V.is_const (V.logand (c 5l) (c 3l)));
  Alcotest.(check (option int32)) "or" (Some 7l) (V.is_const (V.logor (c 5l) (c 3l)));
  Alcotest.(check (option int32)) "not" (Some 0xFFFFFFFAl) (V.is_const (V.lognot (c 5l)));
  Alcotest.(check (option int32)) "neg" (Some 0xFFFFFFFBl) (V.is_const (V.neg (c 5l)));
  Alcotest.(check (option int32)) "mul" (Some 15l) (V.is_const (V.mul (c 5l) (c 3l)));
  Alcotest.(check (option int32)) "shl" (Some 40l) (V.is_const (V.shift Insn.Shl (c 5l) 3));
  Alcotest.(check (option int32)) "shr" (Some 1l) (V.is_const (V.shift Insn.Shr (c 5l) 2));
  Alcotest.(check (option int32)) "sar of negative" (Some 0xFFFFFFFFl)
    (V.is_const (V.shift Insn.Sar (c 0x80000000l) 31));
  Alcotest.(check (option int32)) "wrapped pointer add" (Some 1l)
    (V.is_const (V.add_wrapped (c 0xFFFFFFFFl) 2l))

let test_v_lattice () =
  let j = V.join (V.const 3l) (V.const 7l) in
  Alcotest.(check bool) "join contains both" true (V.contains j 3l && V.contains j 7l);
  Alcotest.(check bool) "join stays bounded" true
    (match V.bounds j with Some (lo, hi) -> lo = 3L && hi = 7L | None -> false);
  Alcotest.(check bool) "leq into join" true (V.leq (V.const 3l) j);
  let w = V.widen (V.range 0L 10L) (V.range 0L 20L) in
  Alcotest.(check bool) "widen jumps the unstable bound" true
    (match V.bounds w with Some (_, hi) -> hi = 0xFFFFFFFFL | None -> false);
  let n = V.narrow w (V.range 0L 20L) in
  Alcotest.(check bool) "narrow recovers the refined bound" true
    (match V.bounds n with Some (_, hi) -> hi = 20L | None -> false);
  Alcotest.(check bool) "bot below everything" true (V.leq V.bot (V.const 0l));
  Alcotest.(check bool) "top contains everything" true
    (V.contains V.top 0l && V.contains V.top 0xFFFFFFFFl);
  Alcotest.(check bool) "taint survives join" true (V.taint (V.join V.byte (V.const 1l)));
  Alcotest.(check bool) "without trims an endpoint" true
    (match V.bounds (V.without (V.range 0L 9L) 0l) with
    | Some (lo, _) -> lo = 1L
    | None -> false);
  Alcotest.(check bool) "without singleton is bot" true
    (V.is_bot (V.without (V.const 4l) 4l))

let test_v_bytes () =
  Alcotest.(check (option int32)) "low byte of const" (Some 0x34l)
    (V.is_const (V.low_byte (V.const 0x1234l)));
  Alcotest.(check (option int32)) "merge_low8 exact" (Some 0x12ABl)
    (V.is_const (V.merge_low8 (V.const 0x1234l) (V.const 0xABl)));
  let merged = V.merge_low8 (V.const 0x1234l) V.byte in
  Alcotest.(check bool) "merge_low8 with unknown byte stays sound" true
    (V.contains merged 0x1200l && V.contains merged 0x12FFl)

let test_region () =
  let r = Absint.Region.(store empty ~addr:(V.const 0x08048000l) ~width:4) in
  Alcotest.(check bool) "writes" true (Absint.Region.writes r);
  Alcotest.(check bool) "bounded" true (Absint.Region.max_bytes r = Some 4L);
  Alcotest.(check bool) "touches its bytes" true
    (Absint.Region.may_touch r ~lo:0x08048002L ~hi:0x08048002L);
  Alcotest.(check bool) "misses elsewhere" false
    (Absint.Region.may_touch r ~lo:0x08048010L ~hi:0x08048020L);
  Alcotest.(check bool) "empty writes nothing" false
    (Absint.Region.writes Absint.Region.empty);
  Alcotest.(check bool) "top unbounded" true
    (Absint.Region.max_bytes Absint.Region.top = None)

(* ------------------------------------------------------------------ *)
(* the CFG fixpoint *)

let test_analyze_getpc_const () =
  (* call +0; pop eax — the pushed return address must be the constant
     code_base+5, which is the whole point of modelling Call exactly *)
  let code = Encode.program [ Insn.Call_rel 0; Insn.Pop_reg Reg.EAX ] in
  let r = Absint.analyze ~entry:(Absint.entry_state ()) (Cfg.build code) in
  match Hashtbl.find_opt r.Absint.in_states 5 with
  | None -> Alcotest.fail "call target block not reachable"
  | Some st -> (
      match st.Absint.stack with
      | top :: _ ->
          Alcotest.(check (option int32)) "pushed return address is constant"
            (Some 0x08048005l) (V.is_const top)
      | [] -> Alcotest.fail "abstract stack empty after call")

let test_analyze_loop_terminates () =
  (* mov ecx,16; L: xor byte [esi],0x5A; inc esi; loop L — an advancing
     store pointer must reach the fixpoint via widening and summarise as
     an unbounded may-write region *)
  let code =
    Encode.program
      [
        Insn.Mov (Insn.S32bit, Insn.Reg Reg.ECX, Insn.Imm 16l);
        Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.ESI), Insn.Imm 0x5Al);
        Insn.Inc (Insn.S32bit, Insn.Reg Reg.ESI);
        Insn.Loop (-6);
      ]
  in
  let r = Absint.analyze ~entry:(Absint.entry_state ()) (Cfg.build code) in
  Alcotest.(check bool) "loop head reachable" true (List.mem 5 r.Absint.reachable);
  Alcotest.(check bool) "the loop writes" true (Absint.Region.writes r.Absint.out.Absint.written)

(* ------------------------------------------------------------------ *)
(* qcheck: the per-instruction transfer function over-approximates the
   emulator.  Start both machines from the same concrete registers (the
   abstract one from exact constants, optionally joined with noise so
   the non-singleton paths get exercised) and require every concrete
   post-register to be contained in its abstract counterpart. *)

let scratch_regs = [ Reg.EAX; Reg.ECX; Reg.EDX; Reg.EBX; Reg.EBP; Reg.ESI; Reg.EDI ]
let gen_reg = QCheck2.Gen.oneofl scratch_regs
let gen_int32 = QCheck2.Gen.ui32

let gen_safe_insn =
  let open QCheck2.Gen in
  let arith =
    oneofl [ Insn.Add; Insn.Or; Insn.Adc; Insn.Sbb; Insn.And; Insn.Sub; Insn.Xor; Insn.Cmp ]
  in
  let shift = oneofl [ Insn.Rol; Insn.Ror; Insn.Shl; Insn.Shr; Insn.Sar ] in
  oneof
    [
      (let* d = gen_reg and* s = gen_reg in
       return (Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Reg s)));
      (let* d = gen_reg and* v = gen_int32 in
       return (Insn.Mov (Insn.S32bit, Insn.Reg d, Insn.Imm v)));
      (let* op = arith and* d = gen_reg and* s = gen_reg in
       return (Insn.Arith (op, Insn.S32bit, Insn.Reg d, Insn.Reg s)));
      (let* op = arith and* d = gen_reg and* v = gen_int32 in
       return (Insn.Arith (op, Insn.S32bit, Insn.Reg d, Insn.Imm v)));
      (let* d = gen_reg in
       return (Insn.Not (Insn.S32bit, Insn.Reg d)));
      (let* d = gen_reg in
       return (Insn.Neg (Insn.S32bit, Insn.Reg d)));
      (let* d = gen_reg in
       return (Insn.Inc (Insn.S32bit, Insn.Reg d)));
      (let* d = gen_reg in
       return (Insn.Dec (Insn.S32bit, Insn.Reg d)));
      (let* op = shift and* d = gen_reg and* n = int_range 1 31 in
       return (Insn.Shift (op, Insn.S32bit, Insn.Reg d, n)));
      (let* d = gen_reg and* b = gen_reg and* disp = gen_int32 in
       return (Insn.Lea (d, { Insn.base = Some b; index = None; disp })));
      (let* a = gen_reg and* b = gen_reg in
       return (Insn.Xchg (a, b)));
      (let* d = gen_reg in
       return (Insn.Movzx (d, Insn.Reg8 Reg.CL)));
      (let* d = gen_reg in
       return (Insn.Movsx (d, Insn.Reg8 Reg.DL)));
      return Insn.Cdq;
      return Insn.Cwde;
      (let* r = gen_reg in
       return (Insn.Push_reg r));
      (let* d = gen_reg and* s = gen_reg in
       return (Insn.Imul2 (d, Insn.Reg s)));
      (let* d = gen_reg and* s = gen_reg and* v = gen_int32 in
       return (Insn.Imul3 (d, Insn.Reg s, v)));
    ]

let gen_regs = QCheck2.Gen.array_size (QCheck2.Gen.return 7) gen_int32

let run_one_concrete insn regs =
  let code = Encode.insn_to_bytes insn in
  let emu = Emulator.create ~code () in
  List.iteri (fun i r -> Emulator.set_reg emu r regs.(i)) scratch_regs;
  match Emulator.step emu with
  | Emulator.Running -> Some (Array.init 8 (fun i -> Emulator.reg emu (Reg.of_code i)))
  | _ -> None

let abstract_of ~noise regs =
  let st = Absint.entry_state () in
  List.fold_left
    (fun st (i, r) ->
      let v = V.const regs.(i) in
      let v = match noise with None -> v | Some w -> V.join v (V.const w) in
      Absint.set st r v)
    st
    (List.mapi (fun i r -> (i, r)) scratch_regs)

let contained st (concrete : int32 array) =
  List.for_all
    (fun i -> V.contains (Absint.get st (Reg.of_code i)) concrete.(i))
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let prop_step_over_approximates =
  QCheck2.Test.make ~name:"Absint.step_insn over-approximates Emulator.step" ~count:1000
    QCheck2.Gen.(triple gen_safe_insn gen_regs (option gen_int32))
    (fun (insn, regs, noise) ->
      match run_one_concrete insn regs with
      | None -> true (* the concrete step halted: nothing to contain *)
      | Some concrete ->
          let st = abstract_of ~noise regs in
          let st' = Absint.step_insn st insn in
          contained st' concrete)

(* Value-level oracle: an abstract value joined from a few concrete ones
   that share most of their bits, pushed through every transformer, must
   contain each concrete result.  This is what pins the known-bits
   component (mask chains, products, shifts, rotates, byte merges). *)

let gen_value_set =
  let open QCheck2.Gen in
  let flip =
    oneof
      [
        map Int32.of_int (int_bound 0xFF);
        map (fun x -> Int32.shift_left (Int32.of_int x) 24) (int_bound 0xFF);
        return 0x80000000l;
      ]
  in
  let* base = gen_int32 and* flips = list_size (int_range 0 2) flip in
  return (base :: List.map (Int32.logxor base) flips)

let abstract_of_set = function
  | [] -> V.bot
  | x :: rest -> List.fold_left (fun a c -> V.join a (V.const c)) (V.const x) rest

let prop_v_transformers_sound =
  QCheck2.Test.make ~name:"V transformers contain every concrete result" ~count:2000
    ~print:(fun (xs, ys, n) ->
      Printf.sprintf "xs=[%s] ys=[%s] n=%d"
        (String.concat ";" (List.map (Printf.sprintf "0x%lx") xs))
        (String.concat ";" (List.map (Printf.sprintf "0x%lx") ys))
        n)
    QCheck2.Gen.(triple gen_value_set gen_value_set (int_range 0 31))
    (fun (xs, ys, n) ->
      let a = abstract_of_set xs and b = abstract_of_set ys in
      let binary =
        [
          (V.add, Int32.add);
          (V.sub, Int32.sub);
          (V.logand, Int32.logand);
          (V.logor, Int32.logor);
          (V.logxor, Int32.logxor);
          (V.mul, Int32.mul);
          ( (fun a b -> V.merge_low8 a (V.low_byte b)),
            fun x y -> Int32.logor (Int32.logand x 0xFFFFFF00l) (Int32.logand y 0xFFl) );
        ]
      in
      let rotl x n =
        if n = 0 then x
        else Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))
      in
      let unary =
        [
          (V.neg, Int32.neg);
          (V.lognot, Int32.lognot);
          (V.low_byte, fun x -> Int32.logand x 0xFFl);
          ((fun a -> V.shift Insn.Shl a n), fun x -> Int32.shift_left x n);
          ((fun a -> V.shift Insn.Shr a n), fun x -> Int32.shift_right_logical x n);
          ((fun a -> V.shift Insn.Sar a n), fun x -> Int32.shift_right x n);
          ((fun a -> V.shift Insn.Rol a n), fun x -> rotl x n);
          ((fun a -> V.shift Insn.Ror a n), fun x -> rotl x ((32 - n) land 31));
        ]
      in
      List.for_all
        (fun (fa, fc) ->
          let r = fa a b in
          List.for_all (fun x -> List.for_all (fun y -> V.contains r (fc x y)) ys) xs)
        binary
      && List.for_all
           (fun (fa, fc) ->
             let r = fa a in
             List.for_all (fun x -> V.contains r (fc x)) xs)
           unary)

(* ------------------------------------------------------------------ *)
(* qcheck: must-refute soundness.  Whenever the static pre-stage claims
   a refutation, the concrete confirmer must independently refute. *)

let sound_refutation ?config code =
  match Static_refute.run ?config ~code ~entry:0 () with
  | None -> true
  | Some _ -> (
      match Confirm.run ?config ~code ~entry:0 () with
      | Confirm.Refuted _ -> true
      | _ -> false)

let gen_any_insn =
  let open QCheck2.Gen in
  oneof
    [
      gen_safe_insn;
      (let* d = gen_reg and* b = gen_reg and* disp = int_range (-64) 256 in
       return
         (Insn.Mov
            (Insn.S32bit, Insn.Mem (Insn.mem_base_disp b (Int32.of_int disp)), Insn.Reg d)));
      (let* d = gen_reg and* b = gen_reg and* disp = int_range (-64) 256 in
       return
         (Insn.Mov
            (Insn.S32bit, Insn.Reg d, Insn.Mem (Insn.mem_base_disp b (Int32.of_int disp)))));
      (let* b = gen_reg and* v = gen_int32 in
       return (Insn.Mov (Insn.S32bit, Insn.Mem (Insn.mem_base b), Insn.Imm v)));
      (let* b = gen_reg in
       return (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base b), Insn.Imm 0x5Al)));
      (let* disp = int_range (-8) 16 in
       return (Insn.Jmp_rel disp));
      (let* cc = oneofl [ Insn.E; Insn.NE; Insn.B; Insn.A; Insn.S; Insn.L ]
       and* disp = int_range (-8) 16 in
       return (Insn.Jcc_rel (cc, disp)));
      (let* disp = int_range (-8) 16 in
       return (Insn.Loop disp));
      (let* disp = int_range (-8) 16 in
       return (Insn.Jecxz disp));
      (let* disp = int_range 0 8 in
       return (Insn.Call_rel disp));
      return Insn.Ret;
      (let* r = gen_reg in
       return (Insn.Pop_reg r));
      return Insn.Int3;
      return (Insn.Int 0x80);
      return (Insn.Int 0x81);
      (let* v = oneofl [ 11l; 102l; 3l ] in
       return (Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm v)));
      return Insn.Stosb;
      return Insn.Lodsb;
      return Insn.Movsb;
      return Insn.Rep_stosb;
      return Insn.Cld;
      return Insn.Std;
      return Insn.Pushad;
      return Insn.Popad;
      return Insn.Pushfd;
      return Insn.Popfd;
      (let* sz = oneofl [ Insn.S8bit; Insn.S32bit ] and* r = gen_reg in
       return (Insn.Div (sz, Insn.Reg r)));
    ]

let prop_refuter_sound_on_programs =
  QCheck2.Test.make ~name:"static refutation implies concrete refutation (programs)"
    ~count:500
    QCheck2.Gen.(list_size (int_range 1 12) gen_any_insn)
    (fun insns ->
      match Encode.program insns with
      | exception Invalid_argument _ -> true
      | "" -> true
      | code -> sound_refutation code)

let prop_refuter_sound_on_bytes =
  QCheck2.Test.make ~name:"static refutation implies concrete refutation (raw bytes)"
    ~count:500
    QCheck2.Gen.(string_size (int_range 1 64))
    (fun code -> sound_refutation code)

(* ------------------------------------------------------------------ *)
(* corpora regressions *)

let test_decoys_statically_refuted () =
  List.iter
    (fun seed ->
      let code =
        Adversarial.payload ~kind:Adversarial.Decoy_decoder ~size:2048 (Rng.create seed)
      in
      (match Static_refute.run ~code ~entry:0 () with
      | Some _ -> ()
      | None -> Alcotest.failf "decoy seed %Ld: expected a static refutation" seed);
      (* and the claim is honest: the emulator agrees *)
      match Confirm.run ~code ~entry:0 () with
      | Confirm.Refuted _ -> ()
      | o -> Alcotest.failf "decoy seed %Ld: emulator disagrees: %a" seed Confirm.pp o)
    [ 1L; 2L; 3L; 4L; 5L ]

let check_never_statically_refuted name code =
  match Static_refute.run ~code ~entry:0 () with
  | None -> ()
  | Some reason -> Alcotest.failf "%s: statically refuted a true decoder (%s)" name reason

let test_true_decoders_never_refuted () =
  List.iter
    (fun seed ->
      let g = Admmutate.generate (Rng.create seed) ~payload:shellcode in
      check_never_statically_refuted
        (Printf.sprintf "admmutate seed %Ld" seed)
        g.Admmutate.code)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ];
  List.iter
    (fun seed ->
      let g = Admmutate.generate_staged (Rng.create seed) ~payload:shellcode in
      check_never_statically_refuted (Printf.sprintf "staged seed %Ld" seed) g.Admmutate.code)
    [ 1L; 2L; 3L ];
  List.iter
    (fun seed ->
      let g = Clet.generate (Rng.create seed) ~payload:shellcode in
      check_never_statically_refuted (Printf.sprintf "clet seed %Ld" seed) g.Clet.code)
    [ 1L; 2L; 3L; 4L; 5L ];
  List.iter
    (fun (e : Shellcodes.entry) ->
      check_never_statically_refuted e.Shellcodes.name e.Shellcodes.code)
    Shellcodes.all

let test_refuter_respects_seed_failures () =
  (* inputs the confirmer rejects before emulating must never be
     statically refuted either *)
  Alcotest.(check bool) "empty image" true (Static_refute.run ~code:"" ~entry:0 () = None);
  Alcotest.(check bool) "entry out of bounds" true
    (Static_refute.run ~code:"\x90" ~entry:7 () = None);
  Alcotest.(check bool) "negative entry" true
    (Static_refute.run ~code:"\x90" ~entry:(-1) () = None);
  let config = { Confirm.default_config with Confirm.arena_size = 8192 } in
  Alcotest.(check bool) "image too large for arena" true
    (Static_refute.run ~config ~code:(String.make 8192 '\x90') ~entry:0 () = None)

let test_refuter_examples () =
  (* int3 straight away: provably refuted *)
  (match Static_refute.run ~code:"\xcc" ~entry:0 () with
  | Some _ -> ()
  | None -> Alcotest.fail "int3 must statically refute");
  (* a store to a wild constant address: provably refuted *)
  let wild =
    Encode.program
      [
        Insn.Mov (Insn.S32bit, Insn.Reg Reg.ESI, Insn.Imm 0x0BAD0000l);
        Insn.Mov (Insn.S32bit, Insn.Mem (Insn.mem_base Reg.ESI), Insn.Imm 1l);
        Insn.Int3;
      ]
  in
  (match Static_refute.run ~code:wild ~entry:0 () with
  | Some _ -> ()
  | None -> Alcotest.fail "wild store must statically refute");
  (* execve reachable: must NOT refute (the emulator would confirm) *)
  let execve = "\xb8\x0b\x00\x00\x00\xcd\x80" in
  Alcotest.(check bool) "execve left to the emulator" true
    (Static_refute.run ~code:execve ~entry:0 () = None);
  (* jmp self: concrete outcome is Inconclusive Budget, not refuted *)
  Alcotest.(check bool) "infinite loop left alone" true
    (Static_refute.run ~code:"\xeb\xfe" ~entry:0 () = None)

(* ------------------------------------------------------------------ *)
(* pipeline integration: the pre-stage short-circuits the emulator
   without changing any verdict *)

open Sanids_net
open Sanids_nids

let attacker = Ipaddr.of_string "172.16.5.5"
let victim = Ipaddr.of_string "10.0.0.80"

let payload_packet ?(ts = 1.0) payload =
  Packet.build_tcp ~ts ~src:attacker ~dst:victim ~src_port:4321 ~dst_port:80
    payload

let base_config = Config.with_classification false Config.default
let confirm_config = Config.with_confirm (Some Confirm.default_config) base_config
let static_config = Config.with_static_refute true confirm_config

let test_pipeline_static_demotes_decoy () =
  let decoy =
    Adversarial.payload ~kind:Adversarial.Decoy_decoder ~size:2048 (Rng.create 23L)
  in
  let on = Pipeline.create static_config in
  Alcotest.(check int) "decoy demoted"
    0
    (List.length (Pipeline.process_packet on (payload_packet decoy)));
  let s = Pipeline.stats on in
  Alcotest.(check bool) "statically refuted at least once" true
    (s.Stats.static_refuted >= 1);
  Alcotest.(check int) "nothing confirmed" 0 s.Stats.confirmed;
  (* verdict equivalence against the emulator-only pipeline *)
  let off = Pipeline.create confirm_config in
  Alcotest.(check int) "same alerts as emulator-only" 0
    (List.length (Pipeline.process_packet off (payload_packet decoy)));
  let s' = Pipeline.stats off in
  Alcotest.(check int) "emulator-only path never counts static refutations" 0
    s'.Stats.static_refuted

let test_pipeline_static_keeps_decoder () =
  let adm = (Admmutate.generate (Rng.create 7L) ~payload:shellcode).Admmutate.code in
  let on = Pipeline.create static_config in
  let alerts = Pipeline.process_packet on (payload_packet adm) in
  Alcotest.(check bool) "true decoder still alerts" true (alerts <> []);
  List.iter
    (fun (a : Alert.t) ->
      Alcotest.(check bool) "alert still marked confirmed" true a.Alert.confirmed)
    alerts;
  let s = Pipeline.stats on in
  Alcotest.(check bool) "decoder confirmed by the emulator" true (s.Stats.confirmed >= 1)

let test_static_refute_config () =
  (* the spec grammar roundtrips the key *)
  (match Config.of_spec "static_refute=true" with
  | Ok f -> Alcotest.(check bool) "spec sets the flag" true (f Config.default).Config.static_refute
  | Error e -> Alcotest.fail e);
  (match Config.of_spec "static_refute=maybe" with
  | Ok _ -> Alcotest.fail "bad boolean must be rejected"
  | Error _ -> ());
  (* SL209: the pre-stage without a confirm stage is a config error *)
  let orphan = Config.with_static_refute true base_config in
  Alcotest.(check bool) "SL209 emitted" true
    (List.exists
       (fun f -> f.Sanids_staticlint.Finding.code = "SL209")
       (Config.lint orphan));
  (match Config.validate orphan with
  | Ok _ -> Alcotest.fail "static_refute without confirm must not validate"
  | Error _ -> ());
  (match Config.validate static_config with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid config rejected: %s" e)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "absint"
    [
      ( "value-domain",
        [
          Alcotest.test_case "constant transformers" `Quick test_v_consts;
          Alcotest.test_case "lattice structure" `Quick test_v_lattice;
          Alcotest.test_case "byte surgery" `Quick test_v_bytes;
          Alcotest.test_case "write regions" `Quick test_region;
        ] );
      ( "fixpoint",
        [
          Alcotest.test_case "getpc return address constant" `Quick test_analyze_getpc_const;
          Alcotest.test_case "decrypt loop terminates" `Quick test_analyze_loop_terminates;
        ] );
      ( "soundness",
        [
          QCheck_alcotest.to_alcotest prop_v_transformers_sound;
          QCheck_alcotest.to_alcotest prop_step_over_approximates;
          QCheck_alcotest.to_alcotest prop_refuter_sound_on_programs;
          QCheck_alcotest.to_alcotest prop_refuter_sound_on_bytes;
        ] );
      ( "corpora",
        [
          Alcotest.test_case "decoys statically refuted" `Quick test_decoys_statically_refuted;
          Alcotest.test_case "true decoders never refuted" `Quick
            test_true_decoders_never_refuted;
          Alcotest.test_case "seed failures honoured" `Quick test_refuter_respects_seed_failures;
          Alcotest.test_case "hand examples" `Quick test_refuter_examples;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "decoy demoted statically" `Quick
            test_pipeline_static_demotes_decoy;
          Alcotest.test_case "true decoder unaffected" `Quick
            test_pipeline_static_keeps_decoder;
          Alcotest.test_case "config plumbing and SL209" `Quick test_static_refute_config;
        ] );
    ]
