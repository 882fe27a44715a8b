module R = Byte_io.Reader

type entry = {
  off : int;
  len : int;
  insn : Insn.t;
  sems : Sem.t array;
  kinds : int;
}

let make_entry ~off ~len insn =
  let sems = Sem.lift insn in
  { off; len; insn; sems; kinds = Sem.kinds sems }

(* The one value of an empty slot, told apart by physical equality: a
   decoded entry is never it. *)
let absent = { off = -1; len = 0; insn = Insn.Int3; sems = [||]; kinds = 0 }

(* The memo is cut into chunks of at most [chunk] slots: 256 words is the
   largest block the runtime allocates in the minor heap, so no slot array
   is ever a major-heap block whose stores of young entries the next
   minor collection would have to promote.  [tags] and [steps] are the
   walk scratch.  Walk [w] tags the offset of its step [i] with
   [w * stride + i], [stride] being the region size, so an offset is on
   the current walk iff its tag is at least [base = walk * stride] (every
   older tag is below it), and then [tag - base] is its step index.
   [steps] holds the current walk's step offsets in order, [length] of
   them.  Both hold only immediates, so their size does not matter to
   the collector.  Only a walk writes a tag, so an offset some walk has
   visited is exactly one whose tag is not [-1]. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type t = {
  code : string;
  reader : R.t;  (** over [code], seeked to each offset a miss decodes *)
  chunks : entry array array;  (** [absent]: not decoded yet *)
  mutable hits : int;
  mutable misses : int;
  tags : int array;  (** [-1]: never walked *)
  mutable base : int;
  mutable steps : int array;
  mutable length : int;
  mutable union : int;  (** OR of the current walk's [kinds] *)
}

let create code =
  let n = max 1 (String.length code) in
  {
    code;
    reader = R.of_string code;
    (* the last chunk is sized to the remainder, so a small region costs
       one small array *)
    chunks =
      Array.init
        ((n + chunk - 1) lsr chunk_bits)
        (fun i -> Array.make (min chunk (n - (i lsl chunk_bits))) absent);
    hits = 0;
    misses = 0;
    tags = Array.make n (-1);
    base = 0;
    (* most traces are a handful of steps; the buffer doubles for the
       rare long one, up to the region size *)
    steps = Array.make (min n 64) 0;
    length = 0;
    union = 0;
  }

let lookup t off =
  let slots = t.chunks.(off lsr chunk_bits) in
  let i = off land (chunk - 1) in
  let e = slots.(i) in
  if e != absent then begin
    t.hits <- t.hits + 1;
    e
  end
  else begin
    t.misses <- t.misses + 1;
    R.seek t.reader off;
    let insn = Decode.next t.reader in
    let e = make_entry ~off ~len:(R.pos t.reader - off) insn in
    slots.(i) <- e;
    e
  end

let decode t off =
  if off < 0 || off >= String.length t.code then None else Some (lookup t off)

(* Where a trace goes after [insn], whose successor in byte order is
   [next]: an unconditional jump's or call's target, nowhere ([-1]) after
   a return, halt or undecodable byte, and [next] for everything else
   (conditional branches and loops fall through).  Any negative result
   stops the walk like an out-of-range target does. *)
let successor insn ~next =
  match insn with
  | Insn.Jmp_rel disp | Insn.Call_rel disp -> next + disp
  | Insn.Ret | Insn.Int3 | Insn.Bad _ -> -1
  | Insn.Jcc_rel _ | Insn.Loop _ | Insn.Loope _ | Insn.Loopne _ | Insn.Jecxz _ -> next
  | Insn.Mov _ | Insn.Arith _ | Insn.Test _ | Insn.Not _ | Insn.Neg _ | Insn.Inc _
  | Insn.Dec _ | Insn.Shift _ | Insn.Lea _ | Insn.Xchg _ | Insn.Push_reg _
  | Insn.Pop_reg _ | Insn.Push_imm _ | Insn.Pushad | Insn.Popad | Insn.Pushfd
  | Insn.Popfd | Insn.Int _ | Insn.Nop | Insn.Cld | Insn.Std | Insn.Lodsb
  | Insn.Lodsd | Insn.Stosb | Insn.Stosd | Insn.Movsb | Insn.Movsd | Insn.Scasb
  | Insn.Cmpsb | Insn.Cdq | Insn.Cwde | Insn.Clc | Insn.Stc | Insn.Cmc | Insn.Sahf
  | Insn.Lahf | Insn.Fwait | Insn.Rep_movsb | Insn.Rep_movsd | Insn.Rep_stosb
  | Insn.Rep_stosd | Insn.Movzx _ | Insn.Movsx _ | Insn.Mul _ | Insn.Imul _
  | Insn.Div _ | Insn.Idiv _ | Insn.Imul2 _ | Insn.Imul3 _ ->
      next

(* The walk is one loop over the cache's own arrays.  Starting it bumps
   the stamp and empties the step buffer; each step checks the length
   bound, the range and the visited tag, and only then takes its one
   instruction of fuel, so a trace that stops for any other reason
   spends none. *)
let walk ?budget ~max_len t ~entry =
  let n = String.length t.code in
  let tags = t.tags in
  let base = t.base + Array.length tags in
  t.base <- base;
  let len = ref 0 and union = ref 0 and off = ref entry in
  while
    !len < max_len && !off >= 0 && !off < n
    && Array.unsafe_get tags !off < base
    && match budget with None -> true | Some b -> Budget.take_insns b 1
  do
    let o = !off and i = !len in
    let e = lookup t o in
    if i = Array.length t.steps then begin
      let grown = Array.make (min n (2 * i)) 0 in
      Array.blit t.steps 0 grown 0 i;
      t.steps <- grown
    end;
    Array.unsafe_set tags o (base + i);
    Array.unsafe_set t.steps i o;
    len := i + 1;
    union := !union lor e.kinds;
    off := successor e.insn ~next:(o + e.len)
  done;
  t.length <- !len;
  t.union <- !union;
  !len

let length t = t.length
let union t = t.union
let covered t off = t.tags.(off) >= 0

let step t i =
  if i >= t.length then invalid_arg "Icache.step: past the walk";
  (* a walk fills the slot of every offset it visits *)
  let off = t.steps.(i) in
  t.chunks.(off lsr chunk_bits).(off land (chunk - 1))

let step_index t off =
  if off >= 0 && off < Array.length t.tags && t.tags.(off) >= t.base then
    t.tags.(off) - t.base
  else -1

let hits t = t.hits
let misses t = t.misses
