(* SL4xx: semantic template lints over the lifted-IR abstract
   interpreter.  Each template is realized as one canonical machine-code
   program (fixed register assignment, guard-satisfying constants, a
   data area the pointer variables aim at), and the realization is
   analyzed with {!Absint}.  The lints then read the fixpoint, not the
   template syntax: a step is unreachable because no abstract path
   reaches its realized instruction, a decrypt loop is hollow because
   the whole-program may-write region provably misses the image. *)

module V = Absint.V

type realization = {
  r_code : string;  (* encoded program followed by the data area *)
  r_code_len : int;  (* instruction bytes, before the data area *)
  r_step_offs : int list;  (* per template step, realized start offset *)
}

let data_bytes = 32
let pool = [ Reg.EBX; Reg.EDX; Reg.ESI; Reg.EDI; Reg.EBP ]

exception Unrealizable

let ptr_vars steps =
  List.fold_left
    (fun acc q ->
      let add v acc = if List.mem v acc then acc else acc @ [ v ] in
      match Template.pstep q with
      | Template.Load { ptr; _ }
      | Template.Mem_transform { ptr; _ }
      | Template.Store { ptr; _ }
      | Template.Ptr_advance { ptr } -> add ptr acc
      | Template.Reg_transform _ | Template.Back_edge | Template.Syscall _
      | Template.Stack_const _ | Template.Code_const _ -> acc)
    [] steps

let realize (t : Template.t) =
  try
    let alloc = Hashtbl.create 8 in
    let reg_of v =
      match Hashtbl.find_opt alloc v with
      | Some r -> r
      | None ->
          let n = Hashtbl.length alloc in
          if n >= List.length pool then raise Unrealizable;
          let r = List.nth pool n in
          Hashtbl.add alloc v r;
          r
    in
    (* canonical constants: any value the guard conjunction admits *)
    let doms = Guards.infer t.Template.guards in
    let cval v =
      let d = Guards.dom doms v in
      match Dom.is_singleton d with
      | Some c -> c
      | None -> (
          match
            List.find_opt
              (fun c -> Dom.subset (Dom.singleton c) d)
              [ 0x5Al; 0x11l; 1l; 2l; 3l; 7l; 0x100l ]
          with
          | Some c -> c
          | None -> 0x5Al)
    in
    let pv ?(dflt = 0x11l) = function
      | Template.Exact c -> c
      | Template.Bind v | Template.Same v -> cval v
      | Template.Any -> dflt
    in
    let width_size = function
      | Template.W8 -> Insn.S8bit
      | Template.W32 | Template.Wany -> Insn.S32bit
    in
    let mem p = Insn.Mem (Insn.mem_base (reg_of p)) in
    let transform ops target key size =
      match ops with
      | [] -> raise Unrealizable
      | op :: _ -> (
          match op with
          | Sem.Ra a -> [ Insn.Arith (a, size, target, Insn.Imm key) ]
          | Sem.Rnot -> [ Insn.Not (size, target) ]
          | Sem.Rneg -> [ Insn.Neg (size, target) ]
          | Sem.Rshift s ->
              let n = Int32.to_int key land 31 in
              [ Insn.Shift (s, size, target, if n = 0 then 1 else n) ])
    in
    let insns_of_step = function
      | Template.Load { dst; ptr; width = Template.W8 } ->
          [ Insn.Movzx (reg_of dst, mem ptr) ]
      | Template.Load { dst; ptr; _ } ->
          [ Insn.Mov (Insn.S32bit, Insn.Reg (reg_of dst), mem ptr) ]
      | Template.Mem_transform { ops; ptr; key; width } ->
          transform ops (mem ptr) (pv key) (width_size width)
      | Template.Reg_transform { ops; reg } ->
          transform ops (Insn.Reg (reg_of reg)) 0x5Al Insn.S32bit
      | Template.Store { src; ptr; width = Template.W8 } -> (
          match Reg.low8 (reg_of src) with
          | Some r8 -> [ Insn.Mov (Insn.S8bit, mem ptr, Insn.Reg8 r8) ]
          | None -> [ Insn.Mov (Insn.S32bit, mem ptr, Insn.Reg (reg_of src)) ])
      | Template.Store { src; ptr; _ } ->
          [ Insn.Mov (Insn.S32bit, mem ptr, Insn.Reg (reg_of src)) ]
      | Template.Ptr_advance { ptr } -> [ Insn.Inc (Insn.S32bit, Insn.Reg (reg_of ptr)) ]
      | Template.Back_edge -> [ Insn.Loop 0 ] (* displacement patched below *)
      | Template.Syscall { vector; al; bl } ->
          [
            (* default the unconstrained vectors to execve so the
               realization does not spuriously look like an exit *)
            Insn.Mov (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Imm (pv ~dflt:11l al));
            Insn.Mov (Insn.S32bit, Insn.Reg Reg.EBX, Insn.Imm (pv ~dflt:2l bl));
            Insn.Int vector;
          ]
      | Template.Stack_const p -> [ Insn.Push_imm (pv p) ]
      | Template.Code_const c -> [ Insn.Push_imm c ]
    in
    let build data_addr =
      let prologue =
        Insn.Mov (Insn.S32bit, Insn.Reg Reg.ECX, Insn.Imm 4l)
        :: List.map
             (fun p -> Insn.Mov (Insn.S32bit, Insn.Reg (reg_of p), Insn.Imm data_addr))
             (ptr_vars t.Template.steps)
      in
      (prologue, List.map (fun q -> insns_of_step (Template.pstep q)) t.Template.steps)
    in
    let unit_len = List.fold_left (fun n i -> n + Encode.length i) 0 in
    (* first pass with a placeholder data address fixes the layout: every
       instruction whose value changes between passes (the pointer
       initializers) has a value-independent encoding length *)
    let prologue0, units0 = build 0l in
    let prologue_len = unit_len prologue0 in
    let offs =
      List.rev
        (fst
           (List.fold_left
              (fun (acc, o) u -> (o :: acc, o + unit_len u)) ([], prologue_len) units0))
    in
    let code_len = List.fold_left (fun n u -> n + unit_len u) prologue_len units0 + 1 in
    let data_addr = Int32.add Emulator.code_base (Int32.of_int code_len) in
    let prologue, units = build data_addr in
    let units =
      List.map2
        (fun off u ->
          match u with
          | [ Insn.Loop _ ] -> [ Insn.Loop (prologue_len - (off + 2)) ]
          | u -> u)
        offs units
    in
    let code = Encode.program (prologue @ List.concat units @ [ Insn.Ret ]) in
    Some
      {
        r_code = code ^ String.make data_bytes '\x41';
        r_code_len = String.length code;
        r_step_offs = offs;
      }
  with Unrealizable | Invalid_argument _ | Failure _ -> None

(* ------------------------------------------------------------------ *)

let exit_nr = 1l

let check (t : Template.t) =
  match realize t with
  | None -> []
  | Some r ->
      let subject = "template:" ^ t.Template.name in
      let out = ref [] in
      let emit ?loc code severity message =
        out := Finding.v ~code ~severity ~subject ?loc message :: !out
      in
      let cfg = Cfg.build r.r_code in
      let res = Absint.analyze ~entry:(Absint.entry_state ()) cfg in
      (* offsets proven live: walk each reachable block under its
         fixpoint in-state; an [int 0x80] whose abstract EAX is exactly
         the exit syscall kills the rest of its block *)
      let live = Hashtbl.create 64 in
      List.iter
        (fun bstart ->
          match (Cfg.block_at cfg bstart, Hashtbl.find_opt res.Absint.in_states bstart) with
          | Some b, Some st0 ->
              ignore
                (List.fold_left
                   (fun (st, alive) (d : Decode.decoded) ->
                     if alive then Hashtbl.replace live d.Decode.off ();
                     let exits =
                       match d.Decode.insn with
                       | Insn.Int 0x80 -> (
                           match V.is_const (Absint.get st Reg.EAX) with
                           | Some v -> Int32.logand v 0xFFl = exit_nr
                           | None -> false)
                       | _ -> false
                     in
                     (Absint.step_insn st d.Decode.insn, alive && not exits))
                   (st0, true) b.Cfg.insns)
          | _, _ -> ())
        res.Absint.reachable;
      List.iteri
        (fun i off ->
          if not (Hashtbl.mem live off) then
            emit
              ~loc:(Printf.sprintf "step %d" (i + 1))
              "SL401" Finding.Warn
              "step is unreachable under the abstract semantics of the \
               template's canonical realization — no abstract path past the \
               preceding steps reaches it")
        r.r_step_offs;
      (* SL403: a template that claims a decrypt loop — a back edge
         around steps that read payload memory — whose realization
         provably never writes a byte of its own image: it can never
         evidence the self-decryption it is supposed to match.  A back
         edge alone (slammer's self-send loop) makes no such claim. *)
      let has_back_edge =
        List.exists (fun q -> Template.pstep q = Template.Back_edge) t.Template.steps
      in
      let reads_memory =
        List.exists
          (fun q ->
            match Template.pstep q with
            | Template.Load _ | Template.Mem_transform _ -> true
            | _ -> false)
          t.Template.steps
      in
      if has_back_edge && reads_memory then begin
        let lo = Int64.of_int32 (Int32.logand Emulator.code_base 0xFFFFFFFFl) in
        let hi = Int64.add lo (Int64.of_int (String.length r.r_code - 1)) in
        if not (Absint.Region.may_touch res.Absint.out.Absint.written ~lo ~hi) then
          emit "SL403" Finding.Warn
            "decrypt loop can never write a byte it later executes: the \
             realization's abstract may-write region misses the whole image \
             (the loop body stores nothing, or stores only outside the \
             region)"
      end;
      List.rev !out

(* ------------------------------------------------------------------ *)
(* SL402: guards versus binding-site dataflow.  A constant variable
   bound at an 8-bit site (a syscall's AL/BL byte, a W8 memory
   transform key) can only ever hold [0, 255]; meeting that fact into
   the guard domains exposes guards that the width makes impossible, and
   guards the width makes vacuous — neither visible to the guard-only
   passes (SL006/SL007). *)

let byte_dom = Dom.of_list (List.init 256 Int32.of_int)

let width_doms (t : Template.t) =
  let bind acc = function
    | Template.Bind v | Template.Same v -> Guards.constrain acc v byte_dom
    | Template.Exact _ | Template.Any -> acc
  in
  List.fold_left
    (fun acc q ->
      match Template.pstep q with
      | Template.Syscall { al; bl; _ } -> bind (bind acc al) bl
      | Template.Mem_transform { key; width = Template.W8; _ } -> bind acc key
      | _ -> acc)
    [] t.Template.steps

let check_guards (t : Template.t) =
  let subject = "template:" ^ t.Template.name in
  let out = ref [] in
  let emit ?loc code severity message =
    out := Finding.v ~code ~severity ~subject ?loc message :: !out
  in
  let widths = width_doms t in
  if widths <> [] then begin
    let gdoms = Guards.infer t.Template.guards in
    let meet_widths doms =
      List.fold_left (fun acc (v, d) -> Guards.constrain acc v d) doms widths
    in
    let both = meet_widths gdoms in
    (* impossible: the width fact empties a domain the guards left open *)
    List.iter
      (fun (v, _) ->
        if
          Dom.is_empty (Guards.dom both v)
          && not (Dom.is_empty (Guards.dom gdoms v))
        then
          emit "SL402" Finding.Error
            (Printf.sprintf
               "guards on %S can never hold: the variable is bound at an \
                8-bit site, so only values in [0, 255] ever reach the guard"
               v))
      both;
    (* vacuous: the width fact alone decides a guard the other guards
       could not *)
    let rec scan before j = function
      | [] -> ()
      | g :: rest ->
          let others = List.rev before @ rest in
          let without = Guards.infer others in
          if
            (not (Dom.is_empty (Guards.dom both (match g with
               | Template.Nonzero v | Template.Equals (v, _) | Template.One_of (v, _) -> v
               | Template.Differ (a, _) -> a))))
            && Guards.implied (meet_widths without) others g
            && not (Guards.implied without others g)
          then
            emit
              ~loc:(Printf.sprintf "guard %d" j)
              "SL402" Finding.Info
              "guard is implied by the binding site's 8-bit width and can \
               never change a verdict";
          scan (g :: before) (j + 1) rest
    in
    scan [] 1 t.Template.guards
  end;
  List.rev !out

let lint ts = List.concat_map (fun t -> check t @ check_guards t) ts
