type result = {
  template : string;
  entry : int;
  offsets : int list;
  reg_bindings : (Template.tvar * Reg.t) list;
  const_bindings : (Template.cvar * int32) list;
}

type env = {
  regs : (Template.tvar * Reg.t) list;
  consts : (Template.cvar * int32) list;
}

let empty_env = { regs = []; consts = [] }

(* Register bindings are injective: one variable per register and one
   register per variable, so e.g. a decoder's pointer and working value
   can never collapse onto the same register. *)
let bind_reg env var reg =
  match List.assoc_opt var env.regs with
  | Some r -> if Reg.equal r reg then Some env else None
  | None ->
      if List.exists (fun (_, r) -> Reg.equal r reg) env.regs then None
      else Some { env with regs = (var, reg) :: env.regs }

let bind_const env var c =
  match List.assoc_opt var env.consts with
  | Some c' -> if Int32.equal c c' then Some env else None
  | None -> Some { env with consts = (var, c) :: env.consts }

let match_pval env (pv : Template.pval) (v : int32 option) =
  match (pv, v) with
  | Template.Any, _ -> Some env
  | Template.Exact c, Some c' -> if Int32.equal c c' then Some env else None
  | Template.Bind x, Some c -> bind_const env x c
  | Template.Same x, Some c -> (
      match List.assoc_opt x env.consts with
      | Some c' -> if Int32.equal c c' then Some env else None
      | None -> None)
  | (Template.Exact _ | Template.Bind _ | Template.Same _), None -> None

let width_ok (req : Template.width_req) (w : Insn.size) =
  match (req, w) with
  | Template.Wany, _ -> true
  | Template.W8, Insn.S8bit -> true
  | Template.W32, Insn.S32bit -> true
  | Template.W8, Insn.S32bit | Template.W32, Insn.S8bit -> false

let int32_of_byte = function Some b -> Some (Int32.of_int b) | None -> None

(* Constant value of a source operand at the access width. *)
let src_value state (w : Insn.size) (v : Sem.value) =
  match w with
  | Insn.S32bit -> Absint.value state v
  | Insn.S8bit -> int32_of_byte (Absint.value_low8 state v)

(* Does the instruction carry [c] as an immediate or a displacement?
   Answered in place: this runs on every start position of templates
   opening with a code constant, so it must not build a list. *)
let insn_has_const c (i : Insn.t) =
  let op (o : Insn.operand) =
    match o with
    | Insn.Imm v -> Int32.equal v c
    | Insn.Mem m -> Int32.equal m.Insn.disp c
    | Insn.Reg _ | Insn.Reg8 _ -> false
  in
  match i with
  | Insn.Mov (_, a, b) | Insn.Arith (_, _, a, b) | Insn.Test (_, a, b) ->
      op a || op b
  | Insn.Not (_, o) | Insn.Neg (_, o) | Insn.Inc (_, o) | Insn.Dec (_, o)
  | Insn.Shift (_, _, o, _) ->
      op o
  | Insn.Lea (_, m) -> Int32.equal m.Insn.disp c
  | Insn.Push_imm v -> Int32.equal v c
  | Insn.Movzx (_, o) | Insn.Movsx (_, o) | Insn.Mul (_, o) | Insn.Imul (_, o)
  | Insn.Div (_, o) | Insn.Idiv (_, o) | Insn.Imul2 (_, o) ->
      op o
  | Insn.Imul3 (_, o, v) -> Int32.equal v c || op o
  | Insn.Xchg _ | Insn.Push_reg _ | Insn.Pop_reg _ | Insn.Pushad | Insn.Popad
  | Insn.Pushfd | Insn.Popfd | Insn.Jmp_rel _ | Insn.Jcc_rel _ | Insn.Call_rel _
  | Insn.Loop _ | Insn.Loope _ | Insn.Loopne _ | Insn.Jecxz _ | Insn.Ret
  | Insn.Int _ | Insn.Int3 | Insn.Nop | Insn.Cld | Insn.Std | Insn.Lodsb
  | Insn.Lodsd | Insn.Stosb | Insn.Stosd | Insn.Movsb | Insn.Movsd | Insn.Scasb
  | Insn.Cmpsb | Insn.Cdq | Insn.Cwde | Insn.Clc | Insn.Stc | Insn.Cmc
  | Insn.Sahf | Insn.Lahf | Insn.Fwait | Insn.Rep_movsb | Insn.Rep_movsd
  | Insn.Rep_stosb | Insn.Rep_stosd | Insn.Bad _ ->
      false

(* Decoder loops address their working cell at (or very near) the walked
   pointer; big fixed displacements are the signature of accidental
   matches in random bytes. *)
let small_disp d = Int32.abs d <= 8l

(* Execution realism for matched loops: junk inside a real decoder never
   dereferences wild pointers (it would fault), so every memory access in
   the loop body must go through a template-bound register or the stack
   frame.  Chance loop shapes in random bytes almost always violate
   this. *)
let body_memory_disciplined (trace : Trace.t) env ~from_idx ~to_idx =
  let allowed r =
    Reg.equal r Reg.ESP || Reg.equal r Reg.EBP
    || List.exists (fun (_, b) -> Reg.equal b r) env.regs
  in
  (* operand-level: every memory operand must be addressed off an allowed
     base (lea computes an address without touching memory — exempt) *)
  let mem_ok (o : Insn.operand) =
    match o with
    | Insn.Mem m -> (
        (match m.Insn.base with Some b -> allowed b | None -> false)
        && match m.Insn.index with Some (r, _) -> allowed r | None -> true)
    | Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _ -> true
  in
  let insn_ok (i : Insn.t) =
    match i with
    | Insn.Mov (_, a, b) | Insn.Arith (_, _, a, b) | Insn.Test (_, a, b) ->
        mem_ok a && mem_ok b
    | Insn.Not (_, o) | Insn.Neg (_, o) | Insn.Inc (_, o) | Insn.Dec (_, o)
    | Insn.Shift (_, _, o, _) ->
        mem_ok o
    | Insn.Movzx (_, o) | Insn.Movsx (_, o) | Insn.Mul (_, o) | Insn.Imul (_, o)
    | Insn.Div (_, o) | Insn.Idiv (_, o) | Insn.Imul2 (_, o)
    | Insn.Imul3 (_, o, _) ->
        mem_ok o
    | Insn.Lodsb | Insn.Lodsd -> allowed Reg.ESI
    | Insn.Stosb | Insn.Stosd | Insn.Scasb -> allowed Reg.EDI
    | Insn.Movsb | Insn.Movsd | Insn.Cmpsb | Insn.Rep_movsb | Insn.Rep_movsd ->
        allowed Reg.ESI && allowed Reg.EDI
    | Insn.Rep_stosb | Insn.Rep_stosd -> allowed Reg.EDI
    | _ -> true
  in
  let ok = ref true in
  for i = from_idx to to_idx do
    if i >= 0 && i < Array.length trace then
      if not (insn_ok trace.(i).Trace.insn) then ok := false
  done;
  !ok

(* Abstract states along the current trace, folded on demand:
   [states.(i)] is the state before step [i], valid for [i < filled].
   Only template steps that read a constant (a transform key, syscall
   registers, a stack constant) ask for one, and the fold runs only as
   far as the highest step asked for, so most traces fold nothing.  A
   scan owns one cursor and resets it for every trace; nothing in it is
   shared between scans or domains. *)
type cursor = { mutable states : Absint.state array; mutable filled : int }

let cursor () = { states = Array.make 16 Absint.initial; filled = 1 }
let reset cur = cur.filled <- 1

let state_at cur (trace : Trace.t) i =
  if i >= cur.filled then begin
    if i >= Array.length cur.states then begin
      let grown = Array.make (max (i + 1) (2 * Array.length cur.states)) Absint.initial in
      Array.blit cur.states 0 grown 0 cur.filled;
      cur.states <- grown
    end;
    for j = cur.filled to i do
      cur.states.(j) <-
        Array.fold_left Absint.step cur.states.(j - 1) trace.(j - 1).Trace.sems
    done;
    cur.filled <- i + 1
  end;
  cur.states.(i)

(* Match one template step against one semantic operation.  [first] is
   [(trace_index, offset)] of the first matched step, and [index_of_off]
   maps byte offsets to trace indices, [-1] when absent (back-edge
   validation). *)
let match_pstep ~cur ~trace ~pos ~index_of_off ~insn_continuation
    (p : Template.pstep) (st : Trace.step) (sem : Sem.t) env first =
  match (p, sem) with
  | Template.Load { dst; ptr; width }, Sem.S_load l ->
      if width_ok width l.width && small_disp l.disp then
        Option.bind (bind_reg env dst l.dst) (fun env -> bind_reg env ptr l.ptr)
      else None
  | Template.Mem_transform { ops; ptr; key; width }, Sem.S_memop m ->
      if
        width_ok width m.width
        && small_disp m.disp
        && List.mem m.op ops
      then
        Option.bind (bind_reg env ptr m.ptr) (fun env ->
            match_pval env key (src_value (state_at cur trace pos) m.width m.src))
      else None
  | Template.Reg_transform { ops; reg }, Sem.S_regop r ->
      if List.mem r.op ops then bind_reg env reg r.dst else None
  | Template.Reg_transform { ops; reg }, Sem.S_advance a ->
      (* add/sub on the working value is a transform too *)
      if
        List.exists
          (fun o -> o = Sem.Ra Insn.Add || o = Sem.Ra Insn.Sub)
          ops
      then bind_reg env reg a.reg
      else None
  | Template.Store { src; ptr; width }, Sem.S_store s -> (
      match s.src with
      | Sem.Vreg r when width_ok width s.width && small_disp s.disp ->
          Option.bind (bind_reg env src r) (fun env -> bind_reg env ptr s.ptr)
      | Sem.Vreg _ | Sem.Vconst _ | Sem.Vunknown -> None)
  | Template.Ptr_advance { ptr }, Sem.S_advance a ->
      (* a string instruction's implicit pointer bump only counts when an
         earlier operation of the same instruction already matched (the
         lods/stos-style decoders), never as a standalone advance *)
      let amt = Int32.to_int a.amount in
      if
        amt <> 0
        && abs amt <= 8
        && ((not a.implicit) || insn_continuation)
      then bind_reg env ptr a.reg
      else None
  | Template.Back_edge, Sem.S_branch b -> (
      match b.kind with
      | `Call -> None
      | `Jmp | `Cond | `Loop | `Loop_cc | `Jecxz -> (
          (* a real loop closes: the branch must target an instruction this
             very trace executed, no later than the first matched step, and
             no further past it in byte space than the first matched step
             itself.  Chance branches in random data almost never land on a
             visited instruction boundary, which is what keeps the benign
             false-positive rate at zero *)
          match first with
          | Some (first_idx, first_off) -> (
              let target = st.Trace.off + st.Trace.len + b.disp in
              if target < 0 || target > first_off then None
              else
                let idx = index_of_off target in
                if
                  idx >= 0 && idx <= first_idx
                  && body_memory_disciplined trace env ~from_idx:idx
                       ~to_idx:(pos - 1)
                then Some env
                else None)
          | None -> None))
  | Template.Syscall { vector; al; bl }, Sem.S_syscall v ->
      if v = vector then
        let state = state_at cur trace pos in
        let low8 r = int32_of_byte (Absint.reg_low8 state r) in
        Option.bind (match_pval env al (low8 Reg.EAX)) (fun env ->
            match_pval env bl (low8 Reg.EBX))
      else None
  | Template.Stack_const pv, Sem.S_push v ->
      match_pval env pv (Absint.value (state_at cur trace pos) v)
  | Template.Stack_const pv, Sem.S_store s ->
      match_pval env pv (src_value (state_at cur trace pos) s.width s.src)
  | Template.Stack_const pv, Sem.S_memop m
    when Reg.equal m.ptr Reg.ESP
         && Int32.compare m.disp 0l >= 0
         && Int32.rem m.disp 4l = 0l ->
      (* a constant finished in place on the stack (push x; xor [esp], m):
         read the folded slot from the post-instruction state *)
      match_pval env pv
        (Absint.slot_value (state_at cur trace (pos + 1)) (Int32.to_int m.disp / 4))
  | Template.Code_const c, _ ->
      (* checked against the instruction itself; any sem of the insn works *)
      if insn_has_const c st.Trace.insn then Some env else None
  | ( ( Template.Load _ | Template.Mem_transform _ | Template.Reg_transform _
      | Template.Store _ | Template.Ptr_advance _ | Template.Back_edge
      | Template.Syscall _ | Template.Stack_const _ ),
      _ ) ->
      None

let rec bound_reg regs r =
  match regs with [] -> false | (_, b) :: tl -> Reg.equal b r || bound_reg tl r

let rec writes_bound regs = function
  | [] -> false
  | w :: tl -> bound_reg regs w || writes_bound regs tl

(* Does skipping this instruction's operations from index [k] on disturb
   any bound register? *)
let clobbers_from env (sems : Sem.t array) k =
  let n = Array.length sems in
  let rec go i = i < n && (writes_bound env.regs (Sem.writes sems.(i)) || go (i + 1)) in
  go (max 0 k)

type istep = Req of Template.pstep | More of Template.pstep

let expand steps =
  List.concat_map
    (function
      | Template.Once p -> [ Req p ]
      | Template.Many p -> [ Req p; More p ])
    steps

(* Semantic-kind bits: one per operation class a template step can
   consume.  A trace step's mask is the OR over its operations; a
   template's first-step demand is the set of classes that could satisfy
   its first [pstep].  A start whose mask misses the demand cannot
   begin a match, and one AND says so. *)
let k_load = 1
let k_store = 2
let k_memop = 4
let k_regop = 8
let k_advance = 16
let k_branch = 32
let k_syscall = 64
let k_push = 128
let k_other = 256

let kind_bit (s : Sem.t) =
  match s with
  | Sem.S_load _ -> k_load
  | Sem.S_store _ -> k_store
  | Sem.S_memop _ -> k_memop
  | Sem.S_regop _ -> k_regop
  | Sem.S_advance _ -> k_advance
  | Sem.S_branch _ -> k_branch
  | Sem.S_syscall _ -> k_syscall
  | Sem.S_push _ -> k_push
  | Sem.S_set _ | Sem.S_lea _ | Sem.S_xchg _ | Sem.S_pop _ | Sem.S_cmp | Sem.S_ret
  | Sem.S_halt | Sem.S_nop | Sem.S_other _ ->
      k_other

let step_kinds (st : Trace.step) =
  Array.fold_left (fun m s -> m lor kind_bit s) 0 st.Trace.sems

(* Which operation classes [match_pstep] can accept for [p]. *)
let demand_of (p : Template.pstep) =
  match p with
  | Template.Load _ -> k_load
  | Template.Mem_transform _ -> k_memop
  | Template.Reg_transform _ -> k_regop lor k_advance
  | Template.Store _ -> k_store
  | Template.Ptr_advance _ -> k_advance
  | Template.Back_edge -> k_branch
  | Template.Syscall _ -> k_syscall
  | Template.Stack_const _ -> k_push lor k_store lor k_memop
  | Template.Code_const _ ->
      (* any operation: the constant is looked for in the instruction *)
      lnot 0

(* A template prepared for one scan: its expanded step list, its first
   step and that step's kind demand, computed once rather than on every
   start position. *)
type compiled = {
  tpl : Template.t;
  steps : istep list;
  first : Template.pstep;
  demand : int;
}

let compile (t : Template.t) =
  let steps = expand t.Template.steps in
  let first =
    match steps with
    | (Req p | More p) :: _ -> p
    | [] -> invalid_arg "Matcher.compile: empty step list"
  in
  { tpl = t; steps; first; demand = demand_of first }

(* Can step [st] (kind mask [kinds]) satisfy the template's first step?
   [false] only when no operation of the step can, so that [match_from]
   from this start would fail at its first attempt. *)
let first_ok c kinds (st : Trace.step) =
  kinds land c.demand <> 0
  &&
  match c.first with
  | Template.Code_const k -> insn_has_const k st.Trace.insn
  | Template.Load _ | Template.Mem_transform _ | Template.Reg_transform _
  | Template.Store _ | Template.Ptr_advance _ | Template.Back_edge
  | Template.Syscall _ | Template.Stack_const _ ->
      true

(* Raised mid-match when the step fuel runs dry: [`Template] means this
   template hit its per-scan step cap (circuit-breaker food), [`Budget]
   means the packet's shared match-step budget is gone. *)
exception Fuel_out of [ `Template | `Budget ]

let no_tick () = ()

let match_from ?(tick = no_tick) ~cur ~index_of_off c (trace : Trace.t) start =
  let t = c.tpl in
  let len = Array.length trace in
  let finish env first offsets =
    if List.for_all (Template.check_guard env.consts) t.guards then
      Some (env, first, List.rev offsets)
    else None
  in
  (* one recursive group per call, with the per-attempt state passed
     explicitly: no closure is built per attempted step *)
  let rec go steps pos sem_idx env first offsets gap =
    match steps with
    | [] -> finish env first offsets
    | More p :: rest -> (
        (* non-greedy: try to move on first; the clobber rule forces the
           loop to continue when the next instruction is another p *)
        match go rest pos sem_idx env first offsets gap with
        | Some r -> Some r
        | None -> attempt p steps pos sem_idx env first offsets gap)
    | Req p :: rest -> attempt p rest pos sem_idx env first offsets gap
  and attempt p rest pos sem_idx env first offsets gap =
    tick ();
    if pos >= len then None else try_sem p rest pos sem_idx env first offsets gap sem_idx
  and try_sem p rest pos sem_idx env first offsets gap k =
    let st = trace.(pos) in
    let sems = st.Trace.sems in
    if k >= Array.length sems then skip p rest pos sem_idx env first offsets gap
    else
      match
        match_pstep ~cur ~trace ~pos ~index_of_off ~insn_continuation:(sem_idx > 0) p st
          sems.(k) env first
      with
      | Some env' -> (
          let first' = match first with None -> Some (pos, st.Trace.off) | s -> s in
          match go rest pos (k + 1) env' first' (st.Trace.off :: offsets) 0 with
          | Some r -> Some r
          | None -> try_sem p rest pos sem_idx env first offsets gap (k + 1))
      | None -> try_sem p rest pos sem_idx env first offsets gap (k + 1)
  and skip p rest pos sem_idx env first offsets gap =
    match first with
    | None -> None (* start positions are enumerated by the caller *)
    | Some _ ->
        if gap >= t.max_gap then None
        else if clobbers_from env trace.(pos).Trace.sems sem_idx then None
        else attempt p rest (pos + 1) 0 env first offsets (gap + 1)
  in
  go c.steps start 0 empty_env None [] 0

(* Every start position along one trace.  [kinds.(i)] is the kind mask
   of step [i].  A start that fails the first-step dispatch is rejected
   without entering [match_from], but still ticks once — the one step
   attempt [match_from] would have charged there — so budget truncation
   and breaker trips land exactly where the plain search puts them. *)
let match_trace_indexed ?(tick = no_tick) ~cur ~index_of_off ~kinds c trace ~entry =
  let len = Array.length trace in
  let found = ref None in
  let s = ref 0 in
  while !s < len && Option.is_none !found do
    let start = !s in
    (if not (first_ok c kinds.(start) trace.(start)) then tick ()
     else
       match match_from ~tick ~cur ~index_of_off c trace start with
       | Some (env, _, offsets) ->
           found :=
             Some
               {
                 template = c.tpl.Template.name;
                 entry;
                 offsets;
                 reg_bindings = List.rev env.regs;
                 const_bindings = List.rev env.consts;
               }
       | None -> ());
    incr s
  done;
  !found

let match_trace t trace ~entry =
  (* a standalone trace has no scan scratch: index it locally *)
  let extent = Array.fold_left (fun m (s : Trace.step) -> max m (s.Trace.off + 1)) 0 trace in
  let index = Array.make extent (-1) in
  Array.iteri (fun i (s : Trace.step) -> index.(s.Trace.off) <- i) trace;
  let index_of_off off = if off >= 0 && off < extent then index.(off) else -1 in
  match_trace_indexed ~cur:(cursor ()) ~index_of_off
    ~kinds:(Array.map step_kinds trace) (compile t) trace ~entry

module Obs = Sanids_obs

(* Scan accounting lands in an observability registry instead of an
   out-parameter record; the names are shared with the NIDS pipeline so
   per-domain registries merge into one coherent view. *)
let decode_memo_hits = "sanids_decode_memo_hits_total"
let decode_memo_misses = "sanids_decode_memo_misses_total"
let scan_budget_exhausted = "sanids_scan_budget_exhausted_total"

let record_scan reg ~hits ~misses ~exhausted =
  let bump name help n =
    if n <> 0 then Obs.Registry.add (Obs.Registry.counter reg ~help name) n
  in
  bump decode_memo_hits "per-offset decodes served from the scan's instruction cache" hits;
  bump decode_memo_misses "per-offset decodes that had to run the decoder" misses;
  bump scan_budget_exhausted "scans that ran out of work budget with templates still open"
    exhausted

(* Templates whose data requirements the region cannot meet are out before
   any trace is built.  Only the mass-mailer family carries literals, so
   a direct allocation-free substring search per literal beats building
   an automaton for every frame. *)
let data_prefilter ~templates code =
  List.filter
    (fun (t : Template.t) ->
      List.for_all
        (fun p -> p = "" || Search.contains_slice ~needle:p code)
        t.Template.data)
    templates

type scan_report = {
  results : result list;
  outcome : Budget.outcome;
      (** the shared budget's state after the scan; [Complete] when no
          budget was supplied *)
  tripped : string list;
      (** templates abandoned for hitting the per-template step cap —
          what the circuit breaker feeds on *)
}

let budget_outcome budget =
  match budget with Some b -> Budget.outcome b | None -> Budget.Complete

(* The scan body, entered after the data prefilter has run: [filtered]
   are the surviving templates.  An empty survivor set returns before any
   per-scan state (icache, coverage map) is allocated — on benign traffic
   this is the common path. *)
let scan_filtered ?entries ?metrics ?budget ?step_cap ~filtered code =
  let n = String.length code in
  if n = 0 then { results = []; outcome = Budget.Complete; tripped = [] }
  else if filtered = [] then
    { results = []; outcome = budget_outcome budget; tripped = [] }
  else begin
    let results = ref [] in
    let tripped = ref [] in
    let compiled = Array.of_list (List.map compile filtered) in
    let ntemplates = Array.length compiled in
    (* templates still open, in their original order *)
    let live = Array.make ntemplates true in
    let nlive = ref ntemplates in
    let close i =
      live.(i) <- false;
      decr nlive
    in
    (* Byte offsets already visited by some trace: starting there again
       could only rediscover a suffix of work already matched against.
       This keeps the whole-buffer entry enumeration near-linear even on
       sled-like inputs, with a work budget as a backstop. *)
    let covered = Bytes.make n '\000' in
    let work = ref (max 4096 (4 * n)) in
    let exhausted = ref false in
    (* variants share a name; once any variant matches, the whole family
       is settled — and per-template step accounts are shared by every
       variant of the name for the same reason *)
    let matched_names = ref [] in
    let step_accounts : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
    let account (t : Template.t) =
      match step_cap with
      | None -> None
      | Some cap -> (
          match Hashtbl.find_opt step_accounts t.Template.name with
          | Some r -> Some r
          | None ->
              let r = ref cap in
              Hashtbl.add step_accounts t.Template.name r;
              Some r)
    in
    let tick_for tpl_steps =
      match (tpl_steps, budget) with
      | None, None -> None
      | _ ->
          Some
            (fun () ->
              (match tpl_steps with
              | Some r -> if !r <= 0 then raise (Fuel_out `Template) else decr r
              | None -> ());
              match budget with
              | Some b -> if not (Budget.take_steps b 1) then raise (Fuel_out `Budget)
              | None -> ())
    in
    let ticks = Array.map (fun c -> tick_for (account c.tpl)) compiled in
    let budget_alive () =
      match budget with None -> true | Some b -> Budget.alive b
    in
    (* one decode cache and one state cursor per scan, shared by every
       entry's trace *)
    let icache = Icache.create code in
    let cur = cursor () in
    let index_of_off = Icache.step_index icache in
    let kinds = ref [||] in
    let run_entry entry =
      if !nlive > 0 && budget_alive () then begin
        if !work <= 0 then exhausted := true
        else begin
          let trace = Trace.build_cached ?budget icache ~entry in
          reset cur;
          let len = Array.length trace in
          work := !work - len - 1;
          if Array.length !kinds < len then kinds := Array.make (max len 64) 0;
          let kinds = !kinds in
          for i = 0 to len - 1 do
            let st = trace.(i) in
            if st.Trace.off >= 0 && st.Trace.off < n then
              Bytes.unsafe_set covered st.Trace.off '\001';
            kinds.(i) <- step_kinds st
          done;
          for i = 0 to ntemplates - 1 do
            if live.(i) then begin
              let c = compiled.(i) in
              let name = c.tpl.Template.name in
              if List.mem name !matched_names then close i
              else
                match
                  match_trace_indexed ?tick:ticks.(i) ~cur ~index_of_off ~kinds c
                    trace ~entry
                with
                | Some r ->
                    results := r :: !results;
                    matched_names := name :: !matched_names;
                    close i
                | None -> ()
                | exception Fuel_out `Template ->
                    (* this template is too expensive on this packet:
                       abandon it for the scan and report the trip *)
                    if not (List.mem name !tripped) then tripped := name :: !tripped;
                    close i
                | exception Fuel_out `Budget ->
                    (* shared fuel gone: keep the template open so the
                       caller sees the scan as truncated, stop matching *)
                    ()
            end
          done
        end
      end
    in
    (match entries with
    | Some es -> List.iter run_entry es
    | None ->
        let o = ref 0 in
        while !o < n && budget_alive () do
          if Bytes.get covered !o = '\000' then run_entry !o;
          incr o
        done);
    (match metrics with
    | Some reg ->
        record_scan reg ~hits:(Icache.hits icache) ~misses:(Icache.misses icache)
          ~exhausted:(if !exhausted then 1 else 0)
    | None -> ());
    {
      results = List.rev !results;
      outcome = budget_outcome budget;
      tripped = List.rev !tripped;
    }
  end

let scan_report ?entries ?metrics ?budget ?step_cap ~templates code =
  scan_filtered ?entries ?metrics ?budget ?step_cap
    ~filtered:(data_prefilter ~templates (Slice.of_string code))
    code

let scan_report_slice ?entries ?metrics ?budget ?step_cap ~templates code =
  (* prefilter on the view; materialize the bytes only when at least one
     template survives (free anyway when the slice is a whole view) *)
  let filtered = data_prefilter ~templates code in
  if filtered = [] then { results = []; outcome = budget_outcome budget; tripped = [] }
  else
    scan_filtered ?entries ?metrics ?budget ?step_cap ~filtered (Slice.to_string code)

let scan ?entries ?metrics ?budget ?step_cap ~templates code =
  (scan_report ?entries ?metrics ?budget ?step_cap ~templates code).results

let satisfies t code = scan ~templates:[ t ] code <> []

let pp_result ppf r =
  Format.fprintf ppf "%s @@entry=0x%x offsets=[%s] regs={%s} consts={%s}"
    r.template r.entry
    (String.concat ";" (List.map (Printf.sprintf "0x%x") r.offsets))
    (String.concat ";"
       (List.map (fun (v, reg) -> Printf.sprintf "%s=%s" v (Reg.name reg)) r.reg_bindings))
    (String.concat ";"
       (List.map (fun (v, c) -> Printf.sprintf "%s=0x%lx" v c) r.const_bindings))

type evidence = {
  ev_template : string;
  ev_entry : int;
  ev_span : (int * int) option;
  ev_consts : (Template.cvar * int32) list;
}

let evidence r =
  let span =
    match r.offsets with
    | [] -> None
    | o :: rest ->
        Some
          (List.fold_left
             (fun (lo, hi) off -> (min lo off, max hi off))
             (o, o) rest)
  in
  {
    ev_template = r.template;
    ev_entry = r.entry;
    ev_span = span;
    ev_consts = r.const_bindings;
  }
