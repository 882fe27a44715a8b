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
   the collector. *)
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
  }

let code t = t.code

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

let start_walk t =
  t.base <- t.base + Array.length t.tags;
  t.length <- 0

let visited t off = t.tags.(off) >= t.base

let visit t off =
  let i = t.length in
  if i = Array.length t.steps then begin
    let grown = Array.make (min (Array.length t.tags) (2 * i)) 0 in
    Array.blit t.steps 0 grown 0 i;
    t.steps <- grown
  end;
  t.tags.(off) <- t.base + i;
  t.steps.(i) <- off;
  t.length <- i + 1

let length t = t.length

let step t i =
  if i >= t.length then invalid_arg "Icache.step: past the walk";
  let off = t.steps.(i) in
  let e = t.chunks.(off lsr chunk_bits).(off land (chunk - 1)) in
  if e == absent then invalid_arg "Icache.step: offset not decoded through the memo";
  e

let step_index t off =
  if off >= 0 && off < Array.length t.tags && t.tags.(off) >= t.base then
    t.tags.(off) - t.base
  else -1

let hits t = t.hits
let misses t = t.misses
