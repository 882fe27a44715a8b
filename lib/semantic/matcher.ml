type result = {
  template : string;
  entry : int;
  offsets : int list;
  reg_bindings : (Template.tvar * Reg.t) list;
  const_bindings : (Template.cvar * int32) list;
}

type scan_report = {
  results : result list;
  outcome : Budget.outcome;
      (** the shared budget's state after the scan; [Complete] when no
          budget was supplied *)
  tripped : string list;
      (** templates abandoned for hitting the per-template step cap —
          what the circuit breaker feeds on *)
}

module Obs = Sanids_obs

(* Scan accounting lands in an observability registry instead of an
   out-parameter record; the names are shared with the NIDS pipeline so
   per-domain registries merge into one coherent view. *)
let decode_memo_hits = "sanids_decode_memo_hits_total"
let decode_memo_misses = "sanids_decode_memo_misses_total"
let decode_memo_lifts = "sanids_decode_memo_lifts_total"
let scan_budget_exhausted = "sanids_scan_budget_exhausted_total"

(* ------------------------------------------------------------------ *)
(* Compiled template sets *)

(* A register is its hardware code (EAX = 0 … EDI = 7): the value of a
   bound register variable's slot. *)
let reg_code (r : Reg.t) =
  match r with
  | Reg.EAX -> 0
  | Reg.ECX -> 1
  | Reg.EDX -> 2
  | Reg.EBX -> 3
  | Reg.ESP -> 4
  | Reg.EBP -> 5
  | Reg.ESI -> 6
  | Reg.EDI -> 7

(* One bit per transform operation, so a step's operation list is one
   mask test. *)
let rop_bit (op : Sem.rop) =
  match op with
  | Sem.Ra a -> (
      match a with
      | Insn.Add -> 0
      | Insn.Or -> 1
      | Insn.Adc -> 2
      | Insn.Sbb -> 3
      | Insn.And -> 4
      | Insn.Sub -> 5
      | Insn.Xor -> 6
      | Insn.Cmp -> 7)
  | Sem.Rnot -> 8
  | Sem.Rneg -> 9
  | Sem.Rshift s -> (
      match s with
      | Insn.Rol -> 10
      | Insn.Ror -> 11
      | Insn.Shl -> 12
      | Insn.Shr -> 13
      | Insn.Sar -> 14)

let ops_mask ops = List.fold_left (fun m op -> m lor (1 lsl rop_bit op)) 0 ops
let has_op mask op = mask land (1 lsl rop_bit op) <> 0

(* A constant pattern over slots.  A 32-bit constant is held as the
   OCaml int [Int32.to_int] gives, and [unbound] is no 32-bit value. *)
type cval = V_any | V_exact of int | V_bind of int | V_same of int

let unbound = min_int

(* A template step with its variables resolved to slots: register
   variables index the environment's register slots, constant variables
   its constant slots, and an operation list is a mask of {!rop_bit}s. *)
type op =
  | O_load of { dst : int; ptr : int; width : Template.width_req }
  | O_memop of { ops : int; ptr : int; key : cval; width : Template.width_req }
  | O_regop of { ops : int; reg : int; advance : bool }
      (** [advance]: [ops] holds add or sub, so a pointer-style advance
          of the register is a transform too *)
  | O_store of { src : int; ptr : int; width : Template.width_req }
  | O_advance of { ptr : int }
  | O_back_edge
  | O_syscall of { vector : int; al : cval; bl : cval }
  | O_stack_const of cval
  | O_code_const of int32

(* [Once p] is one step; [Many p] is a required [p] followed by a
   [more] one that may repeat.  [req] numbers the required step this one
   is or, for a [more] step, the one after it (-1: none), among the
   template's [reqs]. *)
type step = { op : op; more : bool; req : int }

type guard =
  | G_nonzero of int
  | G_equals of int * int
  | G_one_of of int * int list
  | G_differ of int * int

(* One template, compiled.  [reqs] are the kind demands of its required
   steps, in order (a trace must offer each, and a start whose step
   misses [reqs.(0)] is rejected with one AND); [family] numbers its
   name within the set (variants sharing a name share one); [needles]
   index the set's byte needles the region must hold; [reg_names] and
   [const_names] name the slots. *)
type ctpl = {
  name : string;
  steps : step array;
  guards : guard array;
  max_gap : int;
  family : int;
  needles : int array;
  reqs : int array;
  reg_names : string array;
  const_names : string array;
}

(* A template set, compiled once per domain and read by every scan over
   it there, never written: [key] is the list it was compiled from (the
   memo compares it physically).  [needles] are the distinct non-empty
   byte strings the prefilter looks for, [by_first] the needles starting
   with each byte.  [admit] maps a trace's 9-bit kind union to the
   templates whose every step's demand it meets: bit [min i 62] for
   template [i], so past 62 templates one bit stands for the rest.
   [members] lists each family's templates. *)
type cset = {
  key : Template.t list;
  tpls : ctpl array;
  members : int array array;
  needles : string array;
  by_first : int array array;
  admit : int array;
  max_regs : int;
  max_consts : int;
  max_reqs : int;
}

(* Which operation classes ([Sem] kind bits) [match_op] can accept for
   [p].  A trace whose kind union misses the demand of one of a
   template's steps cannot match it, and a start whose step misses the
   first step's demand cannot begin a match. *)
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

(* The index of [name] in [tbl], numbered in order of first appearance. *)
let slot tbl name =
  match Hashtbl.find_opt tbl name with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tbl in
      Hashtbl.add tbl name i;
      i

let names_of tbl =
  let a = Array.make (Hashtbl.length tbl) "" in
  Hashtbl.iter (fun name i -> a.(i) <- name) tbl;
  a

(* A template's compiled form.  [needle] numbers a byte string among
   the set's needles. *)
let compile_template ~family ~needle (t : Template.t) =
  if t.Template.steps = [] then invalid_arg "Matcher.compile: empty step list";
  let regs = Hashtbl.create 8 and consts = Hashtbl.create 8 in
  let reg v = slot regs v and const v = slot consts v in
  let value (pv : Template.pval) =
    match pv with
    | Template.Any -> V_any
    | Template.Exact c -> V_exact (Int32.to_int c)
    | Template.Bind v -> V_bind (const v)
    | Template.Same v -> V_same (const v)
  in
  let op (p : Template.pstep) =
    match p with
    | Template.Load { dst; ptr; width } -> O_load { dst = reg dst; ptr = reg ptr; width }
    | Template.Mem_transform { ops; ptr; key; width } ->
        O_memop { ops = ops_mask ops; ptr = reg ptr; key = value key; width }
    | Template.Reg_transform { ops; reg = r } ->
        O_regop
          {
            ops = ops_mask ops;
            reg = reg r;
            advance = List.mem (Sem.Ra Insn.Add) ops || List.mem (Sem.Ra Insn.Sub) ops;
          }
    | Template.Store { src; ptr; width } -> O_store { src = reg src; ptr = reg ptr; width }
    | Template.Ptr_advance { ptr } -> O_advance { ptr = reg ptr }
    | Template.Back_edge -> O_back_edge
    | Template.Syscall { vector; al; bl } -> O_syscall { vector; al = value al; bl = value bl }
    | Template.Stack_const pv -> O_stack_const (value pv)
    | Template.Code_const c -> O_code_const c
  in
  let nreq = List.length t.Template.steps in
  let steps =
    List.mapi
      (fun j (q : Template.quant) ->
        match q with
        | Template.Once p -> [ { op = op p; more = false; req = j } ]
        | Template.Many p ->
            let o = op p in
            [
              { op = o; more = false; req = j };
              { op = o; more = true; req = (if j + 1 < nreq then j + 1 else -1) };
            ])
      t.Template.steps
  in
  let guard (g : Template.guard) =
    match g with
    | Template.Nonzero v -> G_nonzero (const v)
    | Template.Equals (v, c) -> G_equals (const v, Int32.to_int c)
    | Template.One_of (v, cs) -> G_one_of (const v, List.map Int32.to_int cs)
    | Template.Differ (a, b) -> G_differ (const a, const b)
  in
  let guards = Array.of_list (List.map guard t.Template.guards) in
  let needles =
    List.filter_map (fun d -> if d = "" then None else Some (needle d)) t.Template.data
    @ List.filter_map
        (fun q -> Option.map needle (step_needle (Template.pstep q)))
        t.Template.steps
  in
  {
    name = t.Template.name;
    steps = Array.of_list (List.concat steps);
    guards;
    max_gap = t.Template.max_gap;
    family;
    needles = Array.of_list (List.sort_uniq compare needles);
    reqs =
      Array.of_list (List.map (fun q -> demand_of (Template.pstep q)) t.Template.steps);
    reg_names = names_of regs;
    const_names = names_of consts;
  }

(* Does a trace whose kind union is [u] offer every demand in [needs]? *)
let rec offers needs u i =
  i >= Array.length needs || (needs.(i) land u <> 0 && offers needs u (i + 1))

let compile templates =
  let needles = Hashtbl.create 8 and families = Hashtbl.create 8 in
  let tpls =
    Array.of_list
      (List.map
         (fun (t : Template.t) ->
           compile_template ~family:(slot families t.Template.name) ~needle:(slot needles) t)
         templates)
  in
  let n = Array.length tpls in
  let admit = Array.make 512 0 in
  for u = 0 to 511 do
    for i = 0 to n - 1 do
      if offers tpls.(i).reqs u 0 then admit.(u) <- admit.(u) lor (1 lsl min i 62)
    done
  done;
  let needles = names_of needles in
  let by_first = Array.make 256 [] and members = Array.make (Hashtbl.length families) [] in
  for k = Array.length needles - 1 downto 0 do
    let b = Char.code needles.(k).[0] in
    by_first.(b) <- k :: by_first.(b)
  done;
  for i = n - 1 downto 0 do
    let f = tpls.(i).family in
    members.(f) <- i :: members.(f)
  done;
  let max_of f = Array.fold_left (fun m c -> max m (Array.length (f c))) 0 tpls in
  {
    key = templates;
    tpls;
    members = Array.map Array.of_list members;
    needles;
    by_first = Array.map Array.of_list by_first;
    admit;
    max_regs = max_of (fun c -> c.reg_names);
    max_consts = max_of (fun c -> c.const_names);
    max_reqs = max_of (fun c -> c.reqs);
  }

(* Does a walk whose kind union is [u] admit template [i]?  Its own bit
   of the admission table, or past 62 templates, where one bit stands
   for the rest, its own demands. *)
let admits cs u i =
  if i < 62 then cs.admit.(u) land (1 lsl i) <> 0 else offers cs.tpls.(i).reqs u 0

(* The same templates, physically, in the same order: the list a set was
   compiled from, or one the breakers filtered the same way afresh. *)
let rec same_templates a b =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> x == y && same_templates a' b'
  | [], _ | _ :: _, _ -> false

(* ------------------------------------------------------------------ *)
(* Per-domain scratch *)

(* What scans on one domain reuse, created on the domain's first scan:
   the decode memo's immediate arrays, the abstract states along the
   current trace, the environment (register slots holding a register
   code or -1, the reverse map from register codes to slots, constant
   slots holding a value or [unbound]), the trail of bindings in the
   order they were made, matched offsets by depth, the order gate's
   bounds, the prefilter's needle flags and the templates still open.
   Each array is grown to the largest need and reset over what a scan
   uses.  [memo] is the last template set compiled here.  Of what a scan
   makes, nothing stays here but immediates: the states it folds are
   cleared when it ends. *)
type scratch = {
  icache : Icache.scratch;
  mutable states : Absint.state array;
  mutable regs : int array;
  var_of_reg : int array;
  mutable consts : int array;
  mutable trail : int array;
  mutable offs : int array;
  mutable lat : int array;
  mutable found : Bytes.t;
  mutable live : Bytes.t;
  mutable live_mask : int;
  mutable memo : cset;
  mutable busy : bool;
}

let new_scratch () =
  {
    icache = Icache.scratch ();
    states = Array.make 16 Absint.initial;
    regs = [||];
    var_of_reg = Array.make 8 (-1);
    consts = [||];
    trail = [||];
    offs = Array.make 64 0;
    lat = [||];
    found = Bytes.empty;
    live = Bytes.empty;
    live_mask = 0;
    memo = compile [];
    busy = false;
  }

let scratch_key = Domain.DLS.new_key new_scratch

(* The domain's scratch, or a private one for a scan that starts while
   another holds it (a second thread on the domain). *)
let acquire () =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then new_scratch ()
  else begin
    sc.busy <- true;
    sc
  end

(* The compiled form of [templates]: the memo when it was compiled from
   the same templates, else compiled now (and the scratch grown to it). *)
let compiled sc templates =
  if same_templates sc.memo.key templates then sc.memo
  else begin
    let cs = compile templates in
    let nt = Array.length cs.tpls in
    if Bytes.length sc.found < Array.length cs.needles then
      sc.found <- Bytes.create (Array.length cs.needles);
    if Bytes.length sc.live < nt then sc.live <- Bytes.create nt;
    if Array.length sc.regs < cs.max_regs then sc.regs <- Array.make cs.max_regs (-1);
    if Array.length sc.consts < cs.max_consts then sc.consts <- Array.make cs.max_consts unbound;
    if Array.length sc.lat < cs.max_reqs then sc.lat <- Array.make cs.max_reqs 0;
    if Array.length sc.trail < cs.max_regs + cs.max_consts then
      sc.trail <- Array.make (cs.max_regs + cs.max_consts) 0;
    sc.memo <- cs;
    cs
  end

let record_scan reg ~hits ~misses ~lifts ~exhausted =
  let bump name help n =
    if n <> 0 then Obs.Registry.add (Obs.Registry.counter reg ~help name) n
  in
  bump decode_memo_hits "per-offset lookups served from the scan's decode memo" hits;
  bump decode_memo_misses "per-offset lookups that had to classify the offset" misses;
  bump decode_memo_lifts "offsets the scan decoded and lifted in full" lifts;
  bump scan_budget_exhausted "scans that ran out of work budget with templates still open"
    exhausted

(* ------------------------------------------------------------------ *)
(* The byte prefilter *)

(* Does [needle] from byte [k] on occur in [base] at [i + k]?  The
   caller has checked that it fits. *)
let rec occurs_at base i needle k =
  k >= String.length needle
  || String.unsafe_get base (i + k) = String.unsafe_get needle k
     && occurs_at base i needle (k + 1)

(* Flag each needle of [bucket] (from [j] on) found at [i], and return
   how many are still missing. *)
let rec mark_at cs found base i hi bucket j missing =
  if j >= Array.length bucket then missing
  else
    let k = Array.unsafe_get bucket j in
    let needle = Array.unsafe_get cs.needles k in
    if
      Bytes.unsafe_get found k = '\000'
      && i + String.length needle <= hi
      && occurs_at base i needle 1
    then begin
      Bytes.unsafe_set found k '\001';
      mark_at cs found base i hi bucket (j + 1) (missing - 1)
    end
    else mark_at cs found base i hi bucket (j + 1) missing

let rec all_found found needles j =
  j >= Array.length needles
  || Bytes.unsafe_get found (Array.unsafe_get needles j) <> '\000'
     && all_found found needles (j + 1)

(* One pass over [base.[lo .. hi)] for every needle of the set, stopping
   once all are found; then a template survives when the region holds
   all of its needles.  Writes the survivors into [sc.live] and
   [sc.live_mask] and returns how many there are. *)
let survivors sc cs base lo hi =
  let found = sc.found in
  let missing = ref (Array.length cs.needles) in
  Bytes.fill found 0 !missing '\000';
  let i = ref lo in
  while !missing > 0 && !i < hi do
    let bucket = Array.unsafe_get cs.by_first (Char.code (String.unsafe_get base !i)) in
    if Array.length bucket > 0 then missing := mark_at cs found base !i hi bucket 0 !missing;
    incr i
  done;
  let count = ref 0 and mask = ref 0 in
  for t = 0 to Array.length cs.tpls - 1 do
    if all_found found (Array.unsafe_get cs.tpls t).needles 0 then begin
      Bytes.unsafe_set sc.live t '\001';
      incr count;
      mask := !mask lor (1 lsl min t 62)
    end
    else Bytes.unsafe_set sc.live t '\000'
  done;
  sc.live_mask <- !mask;
  !count

(* ------------------------------------------------------------------ *)
(* The scan *)

(* Raised mid-match when the step fuel runs dry: this template's step
   cap (circuit-breaker food), or the packet's shared match-step
   budget. *)
exception Template_spent
exception Budget_spent

(* One scan's state, young and short-lived; the arrays it names belong
   to the domain's scratch.  The search state is [depth] matched
   operations (their offsets in [offs]), [tlen] bindings on the trail,
   and the first matched step, which is always the start position:
   [first_idx] and its offset [first_off], meaningful once [depth > 0].
   [filled] states of the current trace are folded ([hwm] the most of
   any trace).  [nlive] counts the templates still open, [pending]
   those closed early with their family, which the next walk's
   template loop would have closed. *)
type scan = {
  cs : cset;
  sc : scratch;
  ic : Icache.t;
  budget : Budget.t option;
  gated : bool;
  ticking : bool;
  accounts : int array;  (** per family; empty without a step cap *)
  has_tripped : Bytes.t;  (** per family *)
  regs : int array;
  var_of_reg : int array;
  consts : int array;
  trail : int array;
  lat : int array;
  mutable offs : int array;
  mutable tlen : int;
  mutable depth : int;
  mutable first_idx : int;
  mutable first_off : int;
  mutable len : int;
  mutable filled : int;
  mutable hwm : int;
  mutable nlive : int;
  mutable pending : int;
  mutable work : int;
  mutable exhausted : bool;
  mutable results : result list;
  mutable tripped : string list;
}

let undo_to x mark =
  while x.tlen > mark do
    let t = x.tlen - 1 in
    let e = x.trail.(t) in
    if e >= 0 then begin
      x.var_of_reg.(x.regs.(e)) <- -1;
      x.regs.(e) <- -1
    end
    else x.consts.(-e - 1) <- unbound;
    x.tlen <- t
  done

(* Register bindings are injective: one variable per register and one
   register per variable, so e.g. a decoder's pointer and working value
   can never collapse onto the same register. *)
let bind_reg x v r =
  let b = x.regs.(v) in
  if b >= 0 then b = r
  else if x.var_of_reg.(r) >= 0 then false
  else begin
    x.regs.(v) <- r;
    x.var_of_reg.(r) <- v;
    x.trail.(x.tlen) <- v;
    x.tlen <- x.tlen + 1;
    true
  end

let bind_const x s c =
  let b = x.consts.(s) in
  if b <> unbound then b = c
  else begin
    x.consts.(s) <- c;
    x.trail.(x.tlen) <- -s - 1;
    x.tlen <- x.tlen + 1;
    true
  end

(* [pv] against a folded value; the caller skips the fold for [V_any]. *)
let match_val x pv (v : int32 option) =
  match (pv, v) with
  | V_any, _ -> true
  | V_exact c, Some c' -> c = Int32.to_int c'
  | V_bind s, Some c -> bind_const x s (Int32.to_int c)
  | V_same s, Some c -> x.consts.(s) = Int32.to_int c
  | (V_exact _ | V_bind _ | V_same _), None -> false

let is_any = function V_any -> true | V_exact _ | V_bind _ | V_same _ -> false

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

(* The abstract state before step [i] of the current trace, folded on
   demand: only template steps that read a constant (a transform key,
   syscall registers, a stack constant) ask for one, and the fold runs
   only as far as the highest step asked for, so most traces fold
   nothing. *)
let state_at x i =
  let sc = x.sc in
  if i >= x.filled then begin
    if i >= Array.length sc.states then begin
      let grown = Array.make (max (i + 1) (2 * Array.length sc.states)) Absint.initial in
      Array.blit sc.states 0 grown 0 x.filled;
      sc.states <- grown
    end;
    let states = sc.states in
    for j = x.filled to i do
      states.(j) <-
        Array.fold_left Absint.step states.(j - 1) (Icache.step x.ic (j - 1)).Trace.sems
    done;
    x.filled <- i + 1;
    if x.filled > x.hwm then x.hwm <- x.filled
  end;
  sc.states.(i)

let low8 state r = int32_of_byte (Absint.reg_low8 state r)

(* Execution realism for matched loops: junk inside a real decoder never
   dereferences wild pointers (it would fault), so every memory access in
   the loop body must go through a template-bound register or the stack
   frame.  Chance loop shapes in random bytes almost always violate
   this. *)
let allowed x r = r = 4 (* ESP *) || r = 5 (* EBP *) || x.var_of_reg.(r) >= 0

let rec regs_allowed x = function
  | [] -> true
  | r :: tl -> allowed x (reg_code r) && regs_allowed x tl

(* every memory operand must be addressed off an allowed base
   ([Insn.operands] lists none for lea, which touches no memory) *)
let rec memory_ok x (ops : (Insn.access * Insn.operand) list) =
  match ops with
  | [] -> true
  | (_, (Insn.Mem { Insn.base = Some _; _ } as o)) :: tl ->
      regs_allowed x (Insn.operand_regs o) && memory_ok x tl
  | (_, Insn.Mem { Insn.base = None; _ }) :: _ -> false
  | (_, (Insn.Reg _ | Insn.Reg8 _ | Insn.Imm _)) :: tl -> memory_ok x tl

(* the string instructions address memory through ESI and EDI *)
let implicit_ok x (i : Insn.t) =
  match i with
  | Insn.Lodsb | Insn.Lodsd -> allowed x 6
  | Insn.Stosb | Insn.Stosd | Insn.Scasb | Insn.Rep_stosb | Insn.Rep_stosd -> allowed x 7
  | Insn.Movsb | Insn.Movsd | Insn.Cmpsb | Insn.Rep_movsb | Insn.Rep_movsd ->
      allowed x 6 && allowed x 7
  | _ -> true

let rec body_disciplined x i to_idx =
  i > to_idx
  || (i < 0 || i >= x.len
     ||
     let insn = (Icache.step x.ic i).Trace.insn in
     implicit_ok x insn && memory_ok x (Insn.operands insn))
     && body_disciplined x (i + 1) to_idx

(* Match one compiled step against one semantic operation of step [pos]
   of the current walk, binding into the environment.  On [false] the
   caller undoes whatever bindings it made. *)
let match_op x op ~pos ~insn_continuation (st : Trace.step) (sem : Sem.t) =
  match (op, sem) with
  | O_load { dst; ptr; width }, Sem.S_load l ->
      width_ok width l.width && small_disp l.disp
      && bind_reg x dst (reg_code l.dst)
      && bind_reg x ptr (reg_code l.ptr)
  | O_memop { ops; ptr; key; width }, Sem.S_memop m ->
      width_ok width m.width && small_disp m.disp && has_op ops m.op
      && bind_reg x ptr (reg_code m.ptr)
      && (is_any key || match_val x key (src_value (state_at x pos) m.width m.src))
  | O_regop { ops; reg; _ }, Sem.S_regop r -> has_op ops r.op && bind_reg x reg (reg_code r.dst)
  | O_regop { advance; reg; _ }, Sem.S_advance a ->
      (* add/sub on the working value is a transform too *)
      advance && bind_reg x reg (reg_code a.reg)
  | O_store { src; ptr; width }, Sem.S_store s -> (
      match s.src with
      | Sem.Vreg r when width_ok width s.width && small_disp s.disp ->
          bind_reg x src (reg_code r) && bind_reg x ptr (reg_code s.ptr)
      | Sem.Vreg _ | Sem.Vconst _ | Sem.Vunknown -> false)
  | O_advance { ptr }, Sem.S_advance a ->
      (* a string instruction's implicit pointer bump only counts when an
         earlier operation of the same instruction already matched (the
         lods/stos-style decoders), never as a standalone advance *)
      let amt = Int32.to_int a.amount in
      amt <> 0 && abs amt <= 8
      && ((not a.implicit) || insn_continuation)
      && bind_reg x ptr (reg_code a.reg)
  | O_back_edge, Sem.S_branch b -> (
      match b.kind with
      | `Call -> false
      | `Jmp | `Cond | `Loop | `Loop_cc | `Jecxz ->
          (* a real loop closes: the branch must target an instruction this
             very trace executed, no later than the first matched step, and
             no further past it in byte space than the first matched step
             itself.  Chance branches in random data almost never land on a
             visited instruction boundary, which is what keeps the benign
             false-positive rate at zero *)
          x.depth > 0
          &&
          let target = st.Trace.off + st.Trace.len + b.disp in
          target >= 0 && target <= x.first_off
          &&
          let idx = Icache.step_index x.ic target in
          idx >= 0 && idx <= x.first_idx && body_disciplined x idx (pos - 1))
  | O_syscall { vector; al; bl }, Sem.S_syscall v ->
      v = vector
      && (is_any al || match_val x al (low8 (state_at x pos) Reg.EAX))
      && (is_any bl || match_val x bl (low8 (state_at x pos) Reg.EBX))
  | O_stack_const pv, Sem.S_push v ->
      is_any pv || match_val x pv (Absint.value (state_at x pos) v)
  | O_stack_const pv, Sem.S_store s ->
      is_any pv || match_val x pv (src_value (state_at x pos) s.width s.src)
  | O_stack_const pv, Sem.S_memop m
    when Reg.equal m.ptr Reg.ESP
         && Int32.compare m.disp 0l >= 0
         && Int32.rem m.disp 4l = 0l ->
      (* a constant finished in place on the stack (push x; xor [esp], m):
         read the folded slot from the post-instruction state *)
      is_any pv
      || match_val x pv (Absint.slot_value (state_at x (pos + 1)) (Int32.to_int m.disp / 4))
  | O_code_const c, _ ->
      (* checked against the instruction itself; any sem of the insn works *)
      insn_has_const c st.Trace.insn
  | ( ( O_load _ | O_memop _ | O_regop _ | O_store _ | O_advance _ | O_back_edge
      | O_syscall _ | O_stack_const _ ),
      _ ) ->
      false

let rec writes_bound x = function
  | [] -> false
  | r :: tl -> x.var_of_reg.(reg_code r) >= 0 || writes_bound x tl

(* Does skipping this instruction's operations from index [k] on disturb
   any bound register? *)
let rec clobbers x (sems : Sem.t array) k =
  k < Array.length sems && (writes_bound x (Sem.writes sems.(k)) || clobbers x sems (k + 1))

let rec one_of v = function [] -> false | c :: tl -> c = v || one_of v tl

let guard_holds x = function
  | G_nonzero s -> x.consts.(s) <> unbound && x.consts.(s) <> 0
  | G_equals (s, c) -> x.consts.(s) = c
  | G_one_of (s, cs) -> x.consts.(s) <> unbound && one_of x.consts.(s) cs
  | G_differ (a, b) ->
      x.consts.(a) <> unbound && x.consts.(b) <> unbound && x.consts.(a) <> x.consts.(b)

let rec guards_hold x (gs : guard array) i =
  i >= Array.length gs || (guard_holds x gs.(i) && guards_hold x gs (i + 1))

(* One match-step attempt: this template's step account, then the
   packet's step budget. *)
let tick x family =
  if x.ticking then begin
    if Array.length x.accounts > 0 then begin
      let left = x.accounts.(family) in
      if left <= 0 then raise Template_spent;
      x.accounts.(family) <- left - 1
    end;
    match x.budget with
    | Some b -> if not (Budget.take_steps b 1) then raise Budget_spent
    | None -> ()
  end

let push_offset x depth off =
  if depth >= Array.length x.offs then begin
    let grown = Array.make (2 * Array.length x.offs) 0 in
    Array.blit x.offs 0 grown 0 depth;
    x.offs <- grown;
    x.sc.offs <- grown
  end;
  x.offs.(depth) <- off

(* Unfuelled, the latest walk position at which step [si] can still
   begin its part of a match ([max_int] under fuel, when every attempt
   is made and charged): see {!latest_start}. *)
let bound x c si =
  let r = c.steps.(si).req in
  if x.gated && r >= 0 then x.lat.(r) else max_int

(* The backtracking search from step [si] of [c], at operation
   [sem_idx] of trace step [pos], [gap] instructions skipped since the
   last matched one.  A call that returns [true] leaves the match in the
   environment, trail and offsets; one that returns [false] leaves them
   as it found them.  Every attempt at a step ticks once. *)
let rec go x c si pos sem_idx gap =
  if si >= Array.length c.steps then guards_hold x c.guards 0
  else if c.steps.(si).more then
    (* non-greedy: try to move on first; the clobber rule forces the
       loop to continue when the next instruction is another match *)
    go x c (si + 1) pos sem_idx gap || attempt x c si pos sem_idx gap
  else attempt x c si pos sem_idx gap

and attempt x c si pos sem_idx gap =
  tick x c.family;
  pos < x.len && pos <= bound x c si
  && try_sem x c si pos sem_idx gap (Icache.step x.ic pos) sem_idx

(* after matching step [si], a [more] step goes on with itself *)
and try_sem x c si pos sem_idx gap (st : Trace.step) k =
  let sems = st.Trace.sems in
  if k >= Array.length sems then skip x c si pos sem_idx gap st
  else begin
    let mark = x.tlen and depth = x.depth in
    let s = c.steps.(si) in
    if match_op x s.op ~pos ~insn_continuation:(sem_idx > 0) st sems.(k) then begin
      push_offset x depth st.Trace.off;
      x.depth <- depth + 1;
      go x c (if s.more then si else si + 1) pos (k + 1) 0
      || begin
           x.depth <- depth;
           undo_to x mark;
           try_sem x c si pos sem_idx gap st (k + 1)
         end
    end
    else begin
      undo_to x mark;
      try_sem x c si pos sem_idx gap st (k + 1)
    end
  end

(* start positions are enumerated by the caller: nothing matched yet
   means no skipping *)
and skip x c si pos sem_idx gap st =
  x.depth > 0 && gap < c.max_gap
  && (not (clobbers x st.Trace.sems (max 0 sem_idx)))
  && attempt x c si (pos + 1) 0 (gap + 1)

(* Can step [st] satisfy the template's first step?  [false] only when
   no operation of the step can, so that the search from this start
   would fail at its first attempt. *)
let first_ok c (st : Trace.step) =
  st.Trace.kinds land c.reqs.(0) <> 0
  &&
  match c.steps.(0).op with
  | O_code_const k -> insn_has_const k st.Trace.insn
  | O_load _ | O_memop _ | O_regop _ | O_store _ | O_advance _ | O_back_edge | O_syscall _
  | O_stack_const _ ->
      true

(* The order gate.  A match consumes the template's required steps in
   order, each on an operation of a walk step no earlier than the one
   before it (a step may serve two in a row), so required step [j] can
   only begin at or before [lat.(j)], the latest walk position from
   which required steps [j ..] can be met in order by the steps' tier-1
   kinds.  Fills [lat] and returns [lat.(0)], the latest start; -1 when
   the walk cannot hold the steps in order at all.  Unfuelled, the
   search attempts nothing past these bounds, so it decodes no step it
   could only fail on; under fuel every attempt is made and charged. *)
let latest_start x c =
  let reqs = c.reqs in
  let j = ref (Array.length reqs - 1) and p = ref (x.len - 1) in
  while !j >= 0 && !p >= 0 do
    if Icache.step_kinds x.ic !p land reqs.(!j) <> 0 then begin
      x.lat.(!j) <- !p;
      decr j
    end
    else decr p
  done;
  if !j < 0 then !p else -1

(* Every start position along the current walk, from [s] to [last],
   until one matches.  A start that fails the first-step dispatch is
   rejected without searching, but still ticks once — the one step
   attempt the search would have charged there — so budget truncation
   and breaker trips land exactly where the plain search puts them. *)
let rec from_start x c s ~last =
  s <= last
  &&
  if x.gated && Icache.step_kinds x.ic s land c.reqs.(0) = 0 then
    (* unfuelled, a start the step's tier-1 kinds rule out costs neither
       a tick nor a decode *)
    from_start x c (s + 1) ~last
  else
    let st = Icache.step x.ic s in
    if not (first_ok c st) then begin
      tick x c.family;
      from_start x c (s + 1) ~last
    end
    else begin
      undo_to x 0;
      x.depth <- 0;
      x.first_idx <- s;
      x.first_off <- st.Trace.off;
      go x c 0 s 0 0 || from_start x c (s + 1) ~last
    end

(* The match the environment holds, bindings in the order they were
   made. *)
let result_of x c ~entry =
  let regs = ref [] and consts = ref [] and offsets = ref [] in
  for j = x.tlen - 1 downto 0 do
    let e = x.trail.(j) in
    if e >= 0 then regs := (c.reg_names.(e), Reg.all.(x.regs.(e))) :: !regs
    else consts := (c.const_names.(-e - 1), Int32.of_int x.consts.(-e - 1)) :: !consts
  done;
  for j = x.depth - 1 downto 0 do
    offsets := x.offs.(j) :: !offsets
  done;
  { template = c.name; entry; offsets = !offsets; reg_bindings = !regs; const_bindings = !consts }

let close x i =
  Bytes.set x.sc.live i '\000';
  if i < 62 then x.sc.live_mask <- x.sc.live_mask land lnot (1 lsl i)

(* Template [i] matched: its whole family is settled.  Members after it
   close now, as the template loop would close them later in this walk;
   members before it close too, but stay counted in [nlive] until the
   next walk, whose loop would have closed them first. *)
let settle x i =
  Array.iter
    (fun k ->
      if Bytes.get x.sc.live k <> '\000' then begin
        close x k;
        if k < i then x.pending <- x.pending + 1 else x.nlive <- x.nlive - 1
      end)
    x.cs.members.(x.cs.tpls.(i).family)

(* Search every open template the walk's kind union admits (every open
   template, under fuel), in order. *)
let search_walk x ~entry union =
  for i = 0 to Array.length x.cs.tpls - 1 do
    let c = x.cs.tpls.(i) in
    if Bytes.unsafe_get x.sc.live i <> '\000' && ((not x.gated) || admits x.cs union i)
    then begin
      match from_start x c 0 ~last:(if x.gated then latest_start x c else x.len - 1) with
      | true ->
          x.results <- result_of x c ~entry :: x.results;
          undo_to x 0;
          settle x i
      | false -> ()
      | exception Template_spent ->
          (* this template is too expensive on this packet: abandon it
             for the scan and report the trip *)
          undo_to x 0;
          if Bytes.get x.has_tripped c.family = '\000' then begin
            Bytes.set x.has_tripped c.family '\001';
            x.tripped <- c.name :: x.tripped
          end;
          close x i;
          x.nlive <- x.nlive - 1
      | exception Budget_spent ->
          (* shared fuel gone: keep the template open so the caller sees
             the scan as truncated, stop matching *)
          undo_to x 0
    end
  done

let budget_alive = function None -> true | Some b -> Budget.alive b

let run_entry x entry =
  if x.nlive > 0 && budget_alive x.budget then begin
    if x.work <= 0 then x.exhausted <- true
    else begin
      let len = Trace.walk ?budget:x.budget x.ic ~entry in
      x.len <- len;
      x.filled <- 1;
      x.work <- x.work - len - 1;
      x.nlive <- x.nlive - x.pending;
      x.pending <- 0;
      let union = Icache.union x.ic in
      (* the trace gate: one read of the admission table, unless fuel is
         charged, when every start is visited *)
      let open_ = x.sc.live_mask in
      if (if x.gated then x.cs.admit.(union) land open_ else open_) <> 0 then
        search_walk x ~entry union
    end
  end

(* Walk and search from every entry: the given ones, or every offset
   no earlier trace visited. *)
let run_scan x ?entries n =
  match entries with
  | Some es -> List.iter (run_entry x) es
  | None ->
      (* An offset some trace already visited is skipped: starting
         there again could only rediscover a suffix of work already
         matched against.  This keeps the whole-buffer entry
         enumeration near-linear even on sled-like inputs, with a work
         budget as a backstop. *)
      let o = ref (Icache.next_uncovered x.ic 0) in
      while !o < n && budget_alive x.budget do
        run_entry x !o;
        o := Icache.next_uncovered x.ic (!o + 1)
      done

(* The folded states are the scan's: drop them so the scratch keeps
   nothing young alive. *)
let drop_states x = Array.fill x.sc.states 1 (x.hwm - 1) Absint.initial

(* The report of a scan that matched nothing and charged no fuel: one
   shared value, so that a frame the prefilter rules out costs no
   allocation. *)
let nothing = { results = []; outcome = Budget.Complete; tripped = [] }

let budget_outcome budget =
  match budget with Some b -> Budget.outcome b | None -> Budget.Complete

(* The scan body, entered with [nlive] templates past the prefilter. *)
let scan_code ?entries ?metrics ?budget ?step_cap (sc : scratch) cs ~nlive code =
  let n = String.length code in
  if n = 0 then nothing
  else begin
    Array.fill sc.regs 0 cs.max_regs (-1);
    Array.fill sc.var_of_reg 0 8 (-1);
    Array.fill sc.consts 0 cs.max_consts unbound;
    let ticking = Option.is_some budget || Option.is_some step_cap in
    let nfamilies = Array.length cs.members in
    let x =
      {
        cs;
        sc;
        ic = Icache.create ~scratch:sc.icache code;
        budget;
        gated = not ticking;
        ticking;
        accounts =
          (match step_cap with Some cap -> Array.make nfamilies cap | None -> [||]);
        has_tripped = (if ticking then Bytes.make nfamilies '\000' else Bytes.empty);
        regs = sc.regs;
        var_of_reg = sc.var_of_reg;
        consts = sc.consts;
        trail = sc.trail;
        lat = sc.lat;
        offs = sc.offs;
        tlen = 0;
        depth = 0;
        first_idx = 0;
        first_off = 0;
        len = 0;
        filled = 1;
        hwm = 1;
        nlive;
        pending = 0;
        work = max 4096 (4 * n);
        exhausted = false;
        results = [];
        tripped = [];
      }
    in
    (match run_scan x ?entries n with
    | () -> drop_states x
    | exception e ->
        drop_states x;
        raise e);
    (match metrics with
    | Some reg ->
        record_scan reg ~hits:(Icache.hits x.ic) ~misses:(Icache.misses x.ic)
          ~lifts:(Icache.lifts x.ic) ~exhausted:(if x.exhausted then 1 else 0)
    | None -> ());
    { results = List.rev x.results; outcome = budget_outcome budget; tripped = List.rev x.tripped }
  end

let scan_slice ?entries ?metrics ?budget ?step_cap ~templates sc code =
  let cs = compiled sc templates in
  let lo = Slice.offset code in
  (* prefilter on the view; materialize the bytes only when at least one
     template survives (free anyway when the slice is a whole view) *)
  match survivors sc cs (Slice.base code) lo (lo + Slice.length code) with
  | 0 -> (
      match budget with
      | None -> nothing
      | Some b -> { results = []; outcome = Budget.outcome b; tripped = [] })
  | nlive -> scan_code ?entries ?metrics ?budget ?step_cap sc cs ~nlive (Slice.to_string code)

let scan_report_slice ?entries ?metrics ?budget ?step_cap ~templates code =
  let sc = acquire () in
  match scan_slice ?entries ?metrics ?budget ?step_cap ~templates sc code with
  | report ->
      sc.busy <- false;
      report
  | exception e ->
      sc.busy <- false;
      raise e

let scan ?entries ?metrics ?budget ?step_cap ~templates code =
  (scan_report_slice ?entries ?metrics ?budget ?step_cap ~templates (Slice.of_string code))
    .results

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
