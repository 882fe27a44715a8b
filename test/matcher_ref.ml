(* The reference template matcher: the search the compiled matcher in
   [Sanids_semantic.Matcher] replaced, kept as the oracle of the
   property "compiled ≡ reference" ([test_fastpath.ml]).  It compiles
   its templates on every scan, keeps its environment in association
   lists copied on every binding, threads the search state through
   [Option.bind] and charges fuel through a closure per template; it
   shares with the compiled matcher only the decode memo, the walk, the
   lift and the abstract domain.  Metrics are left out: the oracle
   compares results, outcome, trips and fuel. *)

open Sanids_x86
open Sanids_ir
open Sanids_semantic

type result = Matcher.result

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
   This runs on every start position of templates opening with a code
   constant: a top-level loop over the operands, no closure. *)
let rec has_const c (ops : (Insn.access * Insn.operand) list) =
  match ops with
  | [] -> false
  | (_, Insn.Imm v) :: tl -> Int32.equal v c || has_const c tl
  | (_, Insn.Mem m) :: tl -> Int32.equal m.Insn.disp c || has_const c tl
  | (_, (Insn.Reg _ | Insn.Reg8 _)) :: tl -> has_const c tl

let insn_has_const c (i : Insn.t) = has_const c (Insn.operands i)

(* Decoder loops address their working cell at (or very near) the walked
   pointer; big fixed displacements are the signature of accidental
   matches in random bytes. *)
let small_disp d = Int32.abs d <= 8l

(* Execution realism for matched loops: junk inside a real decoder never
   dereferences wild pointers (it would fault), so every memory access in
   the loop body must go through a template-bound register or the stack
   frame.  Chance loop shapes in random bytes almost always violate
   this. *)
let body_memory_disciplined ic env ~from_idx ~to_idx =
  let allowed r =
    Reg.equal r Reg.ESP || Reg.equal r Reg.EBP
    || List.exists (fun (_, b) -> Reg.equal b r) env.regs
  in
  (* operand-level: every memory operand must be addressed off an allowed
     base ([Insn.operands] lists none for lea, which touches no memory) *)
  let mem_ok ((_ : Insn.access), (o : Insn.operand)) =
    match o with
    | Insn.Mem m -> m.Insn.base <> None && List.for_all allowed (Insn.operand_regs o)
    | Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _ -> true
  in
  (* the string instructions address memory through ESI and EDI *)
  let implicit_ok (i : Insn.t) =
    match i with
    | Insn.Lodsb | Insn.Lodsd -> allowed Reg.ESI
    | Insn.Stosb | Insn.Stosd | Insn.Scasb | Insn.Rep_stosb | Insn.Rep_stosd ->
        allowed Reg.EDI
    | Insn.Movsb | Insn.Movsd | Insn.Cmpsb | Insn.Rep_movsb | Insn.Rep_movsd ->
        allowed Reg.ESI && allowed Reg.EDI
    | _ -> true
  in
  let insn_ok i = implicit_ok i && List.for_all mem_ok (Insn.operands i) in
  let ok = ref true in
  for i = from_idx to to_idx do
    if i >= 0 && i < Icache.length ic then
      if not (insn_ok (Icache.step ic i).Trace.insn) then ok := false
  done;
  !ok

(* Abstract states along the current trace (the scan's latest walk),
   folded on demand:
   [states.(i)] is the state before step [i], valid for [i < filled].
   Only template steps that read a constant (a transform key, syscall
   registers, a stack constant) ask for one, and the fold runs only as
   far as the highest step asked for, so most traces fold nothing.  A
   scan owns one cursor and resets it for every trace; nothing in it is
   shared between scans or domains. *)
type cursor = { mutable states : Absint.state array; mutable filled : int }

let cursor () = { states = Array.make 16 Absint.initial; filled = 1 }
let reset cur = cur.filled <- 1

let state_at cur ic i =
  if i >= cur.filled then begin
    if i >= Array.length cur.states then begin
      let grown = Array.make (max (i + 1) (2 * Array.length cur.states)) Absint.initial in
      Array.blit cur.states 0 grown 0 cur.filled;
      cur.states <- grown
    end;
    for j = cur.filled to i do
      cur.states.(j) <-
        Array.fold_left Absint.step cur.states.(j - 1) (Icache.step ic (j - 1)).Trace.sems
    done;
    cur.filled <- i + 1
  end;
  cur.states.(i)

(* Match one template step against one semantic operation of step [pos]
   of the walk in [ic].  [first] is [(trace_index, offset)] of the first
   matched step; back-edge validation maps its target to a step index
   through the walk's offset index. *)
let match_pstep ~cur ~ic ~pos ~insn_continuation
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
            match_pval env key (src_value (state_at cur ic pos) m.width m.src))
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
                let idx = Icache.step_index ic target in
                if
                  idx >= 0 && idx <= first_idx
                  && body_memory_disciplined ic env ~from_idx:idx
                       ~to_idx:(pos - 1)
                then Some env
                else None)
          | None -> None))
  | Template.Syscall { vector; al; bl }, Sem.S_syscall v ->
      if v = vector then
        let state = state_at cur ic pos in
        let low8 r = int32_of_byte (Absint.reg_low8 state r) in
        Option.bind (match_pval env al (low8 Reg.EAX)) (fun env ->
            match_pval env bl (low8 Reg.EBX))
      else None
  | Template.Stack_const pv, Sem.S_push v ->
      match_pval env pv (Absint.value (state_at cur ic pos) v)
  | Template.Stack_const pv, Sem.S_store s ->
      match_pval env pv (src_value (state_at cur ic pos) s.width s.src)
  | Template.Stack_const pv, Sem.S_memop m
    when Reg.equal m.ptr Reg.ESP
         && Int32.compare m.disp 0l >= 0
         && Int32.rem m.disp 4l = 0l ->
      (* a constant finished in place on the stack (push x; xor [esp], m):
         read the folded slot from the post-instruction state *)
      match_pval env pv
        (Absint.slot_value (state_at cur ic (pos + 1)) (Int32.to_int m.disp / 4))
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

(* Which operation classes ([Sem] kind bits) [match_pstep] can accept
   for [p].  A template's first-step demand is the set for its first
   [pstep]: a start whose step kind mask misses it cannot begin a match,
   and one AND says so. *)
let demand_of (p : Template.pstep) =
  match p with
  | Template.Load _ -> Sem.k_load
  | Template.Mem_transform _ -> Sem.k_memop
  | Template.Reg_transform _ -> Sem.k_regop lor Sem.k_advance
  | Template.Store _ -> Sem.k_store
  | Template.Ptr_advance _ -> Sem.k_advance
  | Template.Back_edge -> Sem.k_branch
  | Template.Syscall _ -> Sem.k_syscall
  | Template.Stack_const _ -> Sem.k_push lor Sem.k_store lor Sem.k_memop
  | Template.Code_const _ ->
      (* any operation: the constant is looked for in the instruction *)
      lnot 0

(* A template prepared for one scan: its expanded step list, its first
   step and that step's kind demand, computed once rather than on every
   start position.  [needs] are the kind demands of its [Req] steps,
   deduplicated: a match consumes each of them on some operation of the
   trace, so a trace whose kind union misses one cannot match at all.
   [family] indexes the template's name among the scan's survivors:
   variants sharing a name share one family. *)
type compiled = {
  tpl : Template.t;
  steps : istep list;
  first : Template.pstep;
  demand : int;
  needs : int array;
  family : int;
}

let compile ~family (t : Template.t) =
  let steps = expand t.Template.steps in
  let first =
    match steps with
    | (Req p | More p) :: _ -> p
    | [] -> invalid_arg "Matcher.compile: empty step list"
  in
  let needs =
    List.sort_uniq compare
      (List.filter_map (function Req p -> Some (demand_of p) | More _ -> None) steps)
  in
  { tpl = t; steps; first; demand = demand_of first; needs = Array.of_list needs; family }

(* Does a trace with kind union [union] offer every class [c] needs? *)
let rec offers needs union i =
  i >= Array.length needs || (needs.(i) land union <> 0 && offers needs union (i + 1))

(* a top-level loop, not a local closure: this runs per template per
   trace and must not allocate *)
let trace_can_match c union = offers c.needs union 0

(* Can step [st] satisfy the template's first step?
   [false] only when no operation of the step can, so that [match_from]
   from this start would fail at its first attempt. *)
let first_ok c (st : Trace.step) =
  st.Trace.kinds land c.demand <> 0
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

let match_from ?(tick = no_tick) ~cur ~ic c start =
  let t = c.tpl in
  let len = Icache.length ic in
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
    let st = Icache.step ic pos in
    let sems = st.Trace.sems in
    if k >= Array.length sems then skip p rest pos sem_idx env first offsets gap
    else
      match
        match_pstep ~cur ~ic ~pos ~insn_continuation:(sem_idx > 0) p st sems.(k) env first
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
        else if clobbers_from env (Icache.step ic pos).Trace.sems sem_idx then None
        else attempt p rest (pos + 1) 0 env first offsets (gap + 1)
  in
  go c.steps start 0 empty_env None [] 0

(* Every start position along the walk in [ic].  A start that fails the
   first-step dispatch (its step's kind mask, read off the step) is
   rejected without entering [match_from], but still ticks once — the one
   step attempt [match_from] would have charged there — so budget
   truncation and breaker trips land exactly where the plain search puts
   them. *)
let match_trace_indexed ?(tick = no_tick) ~cur ~ic c ~entry =
  let len = Icache.length ic in
  let found = ref None in
  let s = ref 0 in
  while !s < len && Option.is_none !found do
    let start = !s in
    (if not (first_ok c (Icache.step ic start)) then tick ()
     else
       match match_from ~tick ~cur ~ic c start with
       | Some (env, _, offsets) ->
           found :=
             Some
               {
                 Matcher.template = c.tpl.Template.name;
                 entry;
                 offsets;
                 reg_bindings = List.rev env.regs;
                 const_bindings = List.rev env.consts;
               }
       | None -> ());
    incr s
  done;
  !found

(* Bytes a template step needs somewhere in the region, when the step
   can only match an instruction whose encoding contains them.  Both
   rules are exact because every instruction is decoded from the
   region's own bytes, which the x86 property "decoded constants lie in
   their own bytes" checks at every offset of random and encoder-built
   regions:
   - [Syscall { vector }] matches only [S_syscall vector], which only
     [Insn.Int vector] lifts to, which only [CD vector] decodes to;
   - [Code_const c] with [c] outside [-128, 255] matches only an
     immediate or displacement the decoder read as a literal
     little-endian u32 (every shorter field is an imm8/disp8, zero- or
     sign-extended into that range), so [c]'s 4 LE bytes occur. *)
let step_needle (p : Template.pstep) =
  match p with
  | Template.Syscall { vector; _ } ->
      Some (String.init 2 (fun i -> Char.chr (if i = 0 then 0xCD else vector land 0xFF)))
  | Template.Code_const c when Int32.compare c (-128l) < 0 || Int32.compare c 255l > 0 ->
      let b = Bytes.create 4 in
      Bytes.set_int32_le b 0 c;
      Some (Bytes.unsafe_to_string b)
  | Template.Code_const _ | Template.Load _ | Template.Mem_transform _
  | Template.Reg_transform _ | Template.Store _ | Template.Ptr_advance _
  | Template.Back_edge | Template.Stack_const _ ->
      None

(* Templates whose byte requirements the region cannot meet are out
   before any trace is built, and so spend no fuel: their [data]
   literals (only the mass-mailer family carries any) and the
   {!step_needle} of every step, each one a necessary condition since a
   match consumes every step at least once.  The needles are derived per
   scan and each distinct one is searched once (the six templates ending
   in an [int 0x80] share [CD 80]) with the allocation-free substring
   search. *)
let data_prefilter ~templates code =
  let searched = ref [] in
  let present needle =
    needle = ""
    ||
    match List.assoc_opt needle !searched with
    | Some found -> found
    | None ->
        let found = Search.contains_slice ~needle code in
        searched := (needle, found) :: !searched;
        found
  in
  let step_ok (q : Template.quant) =
    match q with
    | Template.Once p | Template.Many p -> (
        match step_needle p with None -> true | Some needle -> present needle)
  in
  List.filter
    (fun (t : Template.t) ->
      List.for_all present t.Template.data && List.for_all step_ok t.Template.steps)
    templates

let budget_outcome budget =
  match budget with Some b -> Budget.outcome b | None -> Budget.Complete

(* The scan body, entered after the data prefilter has run: [filtered]
   are the surviving templates.  An empty survivor set returns before any
   per-scan state (the icache, which also holds the walk and the
   coverage tags) is allocated — on benign traffic this is the common
   path. *)
let scan_filtered ?entries ?budget ?step_cap ~filtered code =
  let n = String.length code in
  if n = 0 then { Matcher.results = []; outcome = Budget.Complete; tripped = [] }
  else if filtered = [] then
    { Matcher.results = []; outcome = budget_outcome budget; tripped = [] }
  else begin
    let results = ref [] in
    let tripped = ref [] in
    (* variants share a name; once any variant matches, the whole family
       is settled — and per-template step accounts are shared by every
       variant of the name for the same reason.  Families are numbered
       in order of first appearance, and a family's state is indexed by
       that number *)
    let families = ref [] in
    let family_of name =
      match List.assoc_opt name !families with
      | Some f -> f
      | None ->
          let f = List.length !families in
          families := (name, f) :: !families;
          f
    in
    let compiled =
      Array.of_list
        (List.map (fun (t : Template.t) -> compile ~family:(family_of t.Template.name) t) filtered)
    in
    let nfamilies = List.length !families in
    let settled = Array.make nfamilies false in
    let has_tripped = Array.make nfamilies false in
    let ntemplates = Array.length compiled in
    (* templates still open, in their original order *)
    let live = Array.make ntemplates true in
    let nlive = ref ntemplates in
    let close i =
      live.(i) <- false;
      decr nlive
    in
    let work = ref (max 4096 (4 * n)) in
    let exhausted = ref false in
    let accounts =
      Option.map (fun cap -> Array.init nfamilies (fun _ -> ref cap)) step_cap
    in
    let tick_for family =
      match (accounts, budget) with
      | None, None -> None
      | _ ->
          let tpl_steps = Option.map (fun a -> a.(family)) accounts in
          Some
            (fun () ->
              (match tpl_steps with
              | Some r -> if !r <= 0 then raise (Fuel_out `Template) else decr r
              | None -> ());
              match budget with
              | Some b -> if not (Budget.take_steps b 1) then raise (Fuel_out `Budget)
              | None -> ())
    in
    let ticks = Array.map (fun c -> tick_for c.family) compiled in
    (* Without fuel to account for, a template is skipped on a trace
       whose kind union misses one of its needs: the search could only
       fail there.  Under a budget or step cap the search runs anyway,
       since every start it visits charges a tick. *)
    let gated = Option.is_none budget && Option.is_none step_cap in
    let budget_alive () =
      match budget with None -> true | Some b -> Budget.alive b
    in
    (* one decode cache (which holds the walk) and one state cursor per
       scan, shared by every entry's trace *)
    let icache = Icache.create code in
    let cur = cursor () in
    let run_entry entry =
      if !nlive > 0 && budget_alive () then begin
        if !work <= 0 then exhausted := true
        else begin
          let len = Trace.walk ?budget icache ~entry in
          reset cur;
          work := !work - len - 1;
          let union = Icache.union icache in
          for i = 0 to ntemplates - 1 do
            if live.(i) then begin
              let c = compiled.(i) in
              if settled.(c.family) then close i
              else if gated && not (trace_can_match c union) then ()
              else
                match match_trace_indexed ?tick:ticks.(i) ~cur ~ic:icache c ~entry with
                | Some r ->
                    results := r :: !results;
                    settled.(c.family) <- true;
                    close i
                | None -> ()
                | exception Fuel_out `Template ->
                    (* this template is too expensive on this packet:
                       abandon it for the scan and report the trip *)
                    if not has_tripped.(c.family) then begin
                      has_tripped.(c.family) <- true;
                      tripped := c.tpl.Template.name :: !tripped
                    end;
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
        (* An offset some trace already visited is skipped: starting
           there again could only rediscover a suffix of work already
           matched against.  This keeps the whole-buffer entry
           enumeration near-linear even on sled-like inputs, with a work
           budget as a backstop. *)
        let o = ref 0 in
        while !o < n && budget_alive () do
          if not (Icache.covered icache !o) then run_entry !o;
          incr o
        done);
    {
      Matcher.results = List.rev !results;
      outcome = budget_outcome budget;
      tripped = List.rev !tripped;
    }
  end

let scan_report_slice ?entries ?budget ?step_cap ~templates code =
  (* prefilter on the view; materialize the bytes only when at least one
     template survives (free anyway when the slice is a whole view) *)
  let filtered = data_prefilter ~templates code in
  if filtered = [] then { Matcher.results = []; outcome = budget_outcome budget; tripped = [] }
  else
    scan_filtered ?entries ?budget ?step_cap ~filtered (Slice.to_string code)
