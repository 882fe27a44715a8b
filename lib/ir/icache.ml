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

(* Where a trace goes after [insn], whose successor in byte order is
   [next]: an unconditional jump's or call's target, nowhere ([-1]) after
   a return, halt or undecodable byte, and [next] for everything else
   (conditional branches and loops fall through).  Any negative result
   stops the walk like an out-of-range target does. *)
let successor insn ~next =
  match Insn.flow insn with
  | Insn.Jump disp | Insn.Call disp -> next + disp
  | Insn.Return | Insn.Halt -> -1
  | Insn.Next | Insn.Branch _ -> next

(* ------------------------------------------------------------------ *)
(* Tier 1: shapes *)

(* A shape is what a walk reads of an offset, packed into one
   immediate: bits 0-3 the instruction's length (at least 1, so no shape
   is 0), bits 4-12 its kind mask, and the bits above, signed, its
   successor offset (negative: the trace stops there). *)
let pack ~len ~kinds ~next = (next lsl 13) lor (kinds lsl 4) lor len
let shape_len s = s land 0xF
let shape_kinds s = (s lsr 4) land 0x1FF
let shape_next s = s asr 13

(* An undecodable byte: one byte long, a halt, and the trace stops. *)
let bad_kinds = Sem.kinds (Sem.lift (Insn.Bad 0))
let bad_shape = pack ~len:1 ~kinds:bad_kinds ~next:(-1)

(* The encoding tables.  A shape is a function of a few encoding
   classes: the opcode (after a [0F] escape or an [F3] prefix, the byte
   that follows), the ModRM byte when the opcode takes one, and, when the
   ModRM byte selects a SIB byte, whether that SIB byte names an index
   register and whether it names no base (mod 0, base 5: an absolute
   address with a 32-bit displacement).  Nothing in the tables is
   written by hand: each entry is what [Decode.next], [Sem.lift] and
   [successor] give for representatives of its class, the operand bytes
   after them zero (and, without a ModRM byte, 0x80 too, so that a
   relative target shows).  A class whose representatives disagree, or
   whose successor is not one the tables can spell, is marked [deep]: an
   offset that falls in it takes the full decode.  The one such class
   the decoder has is [lea] with a SIB byte and no index, which lifts to
   an advance exactly when the base is the destination.  That the
   classes are exact is checked against the decoder over every opcode,
   ModRM and SIB byte ([test/test_fastpath.ml]).

   [ops] has one row of 256 per opcode map (plain, after [0F], after
   [F3]).  An op entry's low two bits tag it:
   - [op_fixed]: the instruction's length and kinds follow from the
     opcode alone; bits 2-5 the length, 6-14 the kinds, 15-16 the
     successor: fall through, stop, or a relative target whose 1- or
     4-byte displacement ends the instruction;
   - [op_modrm]: a ModRM byte follows the first [pre] bytes (bits 2-3)
     and selects the entry of row [row] (bits 4 up) in [rows];
   - [op_escape]: bits 2 up name the map of the next byte;
   - [deep].
   A [rows] entry's low two bits tag it:
   - [row_plain]: bits 2-5 the length, 6-14 the kinds, falling through;
   - [row_sib]: likewise, plus the kinds with an index register or no
     base in bits 15-23, and 4 more bytes for no base;
   - [row_bad]: the bytes do not decode;
   - [deep]. *)
let op_fixed = 0
let op_modrm = 1
let op_escape = 2
let row_plain = 0
let row_sib = 1
let row_bad = 2
let deep = 3
let succ_fall = 0
let succ_stop = 1
let succ_rel8 = 2
let succ_rel32 = 3

(* The two escape bytes, and the bytes that open each map. *)
let escape_map b = if b = 0x0F then 1 else if b = 0xF3 then 2 else 0
let maps = [| []; [ 0x0F ]; [ 0xF3 ] |]

let derive () =
  (* one decode of [bytes], every later byte [fill] *)
  let decode ?(fill = '\000') bytes =
    let b = Bytes.make 16 fill in
    List.iteri (fun i x -> Bytes.set b i (Char.chr x)) bytes;
    let r = R.of_string (Bytes.unsafe_to_string b) in
    let insn = Decode.next r in
    let len = R.pos r in
    (insn, len, Sem.kinds (Sem.lift insn), successor insn ~next:len)
  in
  let fits len kinds = len <= 15 && kinds < 0x200 in
  (* an instruction that falls through *)
  let plain bytes =
    match decode bytes with
    | Insn.Bad _, _, _, _ -> `Bad
    | _, l, k, s -> if s = l && fits l k then `Plain (l, k) else `Deep
  in
  let row_entry ~pre m =
    let md = m lsr 6 and reg = (m lsr 3) land 7 in
    if md = 3 || m land 7 <> 4 then
      match plain (pre @ [ m ]) with
      | `Bad -> row_bad
      | `Plain (l, k) -> (k lsl 6) lor (l lsl 2) lor row_plain
      | `Deep -> deep
    else begin
      (* a SIB byte follows.  Representatives: no index (4) with the
         ModRM reg field as the base and with another base, an index,
         and (mod 0 only) no base *)
      let agree sibs =
        match List.map (fun s -> plain (pre @ [ m; s ])) sibs with
        | r :: rest when List.for_all (( = ) r) rest -> r
        | _ -> `Deep
      in
      let other = if reg = 3 then 6 else 3 in
      let no_index =
        (0x20 lor other) :: (if md = 0 && reg = 5 then [] else [ 0xE0 lor reg ])
        @ if md = 0 then [] else [ 0x65 ]
      in
      let indexed = [ 0x00; 0xFF ] @ if md = 0 then [] else [ 0x45 ] in
      let no_base () = agree [ 0x25; 0x05 ] in
      match (agree no_index, agree indexed) with
      | `Bad, `Bad when md <> 0 || no_base () = `Bad -> row_bad
      | `Plain (l, k), `Plain (l', k')
        when l = l' && fits (l + 4) k' && (md <> 0 || no_base () = `Plain (l + 4, k')) ->
          (k' lsl 15) lor (k lsl 6) lor (l lsl 2) lor row_sib
      | _ -> deep
    end
  in
  let nrows = ref 0 and rows = ref [] in
  let op_entry map b =
    if map = 0 && escape_map b <> 0 then (escape_map b lsl 2) lor op_escape
    else begin
      let pre = maps.(map) @ [ b ] in
      (* does the next byte change the length or kinds?  Then it is a
         ModRM byte: try register and memory forms, with and without a
         displacement, and two reg fields *)
      let probe (md, reg) =
        let _, l, k, _ = decode (pre @ [ (md lsl 6) lor (reg lsl 3) ]) in
        (l, k)
      in
      let first = probe (0, 0) in
      if List.exists (fun p -> probe p <> first) [ (2, 0); (3, 0); (0, 7); (2, 7); (3, 7) ]
      then begin
        let row = !nrows in
        incr nrows;
        rows := Array.init 256 (row_entry ~pre) :: !rows;
        (row lsl 4) lor (List.length pre lsl 2) lor op_modrm
      end
      else begin
        (* every operand byte zero, then 0x80: a relative target moves *)
        let _, l, k, s = decode pre in
        let _, l', k', s' = decode ~fill:'\x80' pre in
        let width = l - List.length pre in
        let succ =
          if l <> l' || k <> k' || not (fits l k) then None
          else if s = -1 && s' = -1 then Some succ_stop
          else if s = l && s' = l then Some succ_fall
          else if s = l && width = 1 && s' = l - 0x80 then Some succ_rel8
          else if s = l && width = 4 && s' = l + 0x80808080 - (1 lsl 32) then Some succ_rel32
          else None
        in
        match succ with
        | Some c -> (c lsl 15) lor (k lsl 6) lor (l lsl 2) lor op_fixed
        | None -> deep
      end
    end
  in
  let ops = Array.init (3 * 256) (fun i -> op_entry (i lsr 8) (i land 0xFF)) in
  (ops, Array.concat (List.rev !rows))

let ops, rows = derive ()

let tables_intact () =
  let ops', rows' = derive () in
  ops = ops' && rows = rows'

let byte code i = Char.code (String.unsafe_get code i)

(* The shape of the instruction at [o], read off the tables, or [0]
   when only the full decode can tell.  An instruction that runs past
   the region's end is an undecodable byte, as [Decode.next] reads it. *)
let classify code o =
  let n = String.length code in
  let e = Array.unsafe_get ops (byte code o) in
  if e land 3 = op_escape && o + 1 >= n then bad_shape
  else
    let e =
      if e land 3 = op_escape then
        Array.unsafe_get ops (((e lsr 2) lsl 8) lor byte code (o + 1))
      else e
    in
    let tag = e land 3 in
    if tag = op_fixed then
      let len = (e lsr 2) land 0xF in
      let next = o + len in
      if next > n then bad_shape
      else
        let kinds = (e lsr 6) land 0x1FF in
        let succ = e lsr 15 in
        if succ = succ_fall then pack ~len ~kinds ~next
        else if succ = succ_stop then pack ~len ~kinds ~next:(-1)
        else if succ = succ_rel8 then
          let d = byte code (next - 1) in
          pack ~len ~kinds ~next:(next + d - ((d land 0x80) lsl 1))
        else
          let d =
            byte code (next - 4)
            lor (byte code (next - 3) lsl 8)
            lor (byte code (next - 2) lsl 16)
            lor (byte code (next - 1) lsl 24)
          in
          pack ~len ~kinds ~next:(next + d - ((d land 0x80000000) lsl 1))
    else if tag = op_modrm then
      let p = o + ((e lsr 2) land 3) in
      if p >= n then bad_shape
      else
        let m = byte code p in
        let r = Array.unsafe_get rows (((e lsr 4) lsl 8) lor m) in
        let tag = r land 3 in
        if tag = row_plain then
          let len = (r lsr 2) land 0xF in
          if o + len > n then bad_shape
          else pack ~len ~kinds:((r lsr 6) land 0x1FF) ~next:(o + len)
        else if tag = row_sib then
          if p + 1 >= n then bad_shape
          else
            let s = byte code (p + 1) in
            let no_base = m < 0x40 && s land 7 = 5 in
            let len = ((r lsr 2) land 0xF) + if no_base then 4 else 0 in
            if o + len > n then bad_shape
            else
              let kinds =
                if s land 0x38 = 0x20 && not no_base then (r lsr 6) land 0x1FF
                else (r lsr 15) land 0x1FF
              in
              pack ~len ~kinds ~next:(o + len)
        else if tag = row_bad then bad_shape
        else 0
    else 0

(* ------------------------------------------------------------------ *)
(* The cache *)

(* Tier 2 is cut into chunks of at most [chunk] slots: 256 words is the
   largest block the runtime allocates in the minor heap, so no slot
   array is ever a major-heap block whose stores of young entries the
   next minor collection would have to promote.  A chunk is allocated
   when its first entry is built, so a scan whose walks never pass the
   gate allocates none.  [tags] and [steps] are the walk scratch.  Walk
   [w] tags the offset of its step [i] with [w * stride + i], [stride]
   being the region size, so an offset is on the current walk iff its tag
   is at least [base = walk * stride] (every older tag is below it), and
   then [tag - base] is its step index.  [steps] holds the current walk's
   step offsets in order, [length] of them.  [shapes], [tags] and
   [steps] hold only immediates, so their size does not matter to the
   collector.  Only a walk writes a tag, so an offset some walk has
   visited is exactly one whose tag is not [-1]. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type t = {
  code : string;
  reader : R.t;  (** over [code], seeked to each offset tier 2 decodes *)
  shapes : int array;  (** tier 1; [0]: not filled yet *)
  chunks : entry array array;  (** tier 2; [[||]]: no chunk yet, [absent]: no entry *)
  mutable hits : int;
  mutable misses : int;
  mutable lifts : int;
  tags : int array;  (** [-1]: never walked *)
  mutable base : int;
  steps : int array;
  mutable length : int;
  mutable union : int;  (** OR of the current walk's [kinds] *)
}

(* The immediate arrays a cache borrows: grown to the largest region
   seen and reset over each region's length, so scans that pass one
   scratch reuse one set; a cache created without one gets its own.  [steps] is as long as [shapes]:
   a walk never revisits an offset, so it never outgrows the region. *)
type scratch = {
  mutable s_shapes : int array;
  mutable s_tags : int array;
  mutable s_steps : int array;
}

let scratch () = { s_shapes = [||]; s_tags = [||]; s_steps = [||] }

let create ?scratch:(s = scratch ()) code =
  let n = max 1 (String.length code) in
  if Array.length s.s_shapes < n then begin
    s.s_shapes <- Array.make n 0;
    s.s_tags <- Array.make n (-1);
    s.s_steps <- Array.make n 0
  end
  else begin
    Array.fill s.s_shapes 0 n 0;
    Array.fill s.s_tags 0 n (-1)
  end;
  {
    code;
    reader = R.of_string code;
    shapes = s.s_shapes;
    chunks = Array.make ((n + chunk - 1) lsr chunk_bits) [||];
    hits = 0;
    misses = 0;
    lifts = 0;
    tags = s.s_tags;
    base = 0;
    steps = s.s_steps;
    length = 0;
    union = 0;
  }

(* The tier-2 entry at an in-range offset, decoded and lifted the first
   time it is asked for. *)
let entry t off =
  let c = off lsr chunk_bits in
  let slots = t.chunks.(c) in
  let i = off land (chunk - 1) in
  if Array.length slots > 0 && slots.(i) != absent then slots.(i)
  else begin
    let slots =
      if Array.length slots > 0 then slots
      else begin
        (* the last chunk is sized to the remainder, so a small region
           costs one small array *)
        let slots = Array.make (min chunk (String.length t.code - (c lsl chunk_bits))) absent in
        t.chunks.(c) <- slots;
        slots
      end
    in
    t.lifts <- t.lifts + 1;
    R.seek t.reader off;
    let insn = Decode.next t.reader in
    let e = make_entry ~off ~len:(R.pos t.reader - off) insn in
    slots.(i) <- e;
    e
  end

let fill t off =
  let s = classify t.code off in
  let s =
    if s <> 0 then s
    else
      let e = entry t off in
      pack ~len:e.len ~kinds:e.kinds ~next:(successor e.insn ~next:(off + e.len))
  in
  t.shapes.(off) <- s;
  s

(* The one tier-1 lookup: a hit when the offset's shape is filled, a
   miss that fills it otherwise. *)
let lookup_shape t off =
  let s = Array.unsafe_get t.shapes off in
  if s <> 0 then begin
    t.hits <- t.hits + 1;
    s
  end
  else begin
    t.misses <- t.misses + 1;
    fill t off
  end

let lookup t off =
  ignore (lookup_shape t off);
  entry t off

let decode t off =
  if off < 0 || off >= String.length t.code then None else Some (lookup t off)

let shape t off =
  if off < 0 || off >= String.length t.code then invalid_arg "Icache.shape: out of range";
  lookup_shape t off

(* The walk is one loop over the cache's own arrays.  Starting it bumps
   the stamp and empties the step buffer; each step checks the length
   bound, the range and the visited tag, and only then takes its one
   instruction of fuel, so a trace that stops for any other reason
   spends none.  It reads shapes only. *)
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
    let s = lookup_shape t o in
    Array.unsafe_set tags o (base + i);
    Array.unsafe_set t.steps i o;
    len := i + 1;
    union := !union lor shape_kinds s;
    off := shape_next s
  done;
  t.length <- !len;
  t.union <- !union;
  !len

let length t = t.length
let union t = t.union
let covered t off = t.tags.(off) >= 0

let rec next_uncovered t off =
  if off >= String.length t.code || Array.unsafe_get t.tags off < 0 then off
  else next_uncovered t (off + 1)

let step t i =
  if i >= t.length then invalid_arg "Icache.step: past the walk";
  entry t t.steps.(i)

let step_kinds t i =
  if i >= t.length then invalid_arg "Icache.step_kinds: past the walk";
  shape_kinds t.shapes.(t.steps.(i))

let step_index t off =
  if off >= 0 && off < String.length t.code && t.tags.(off) >= t.base then
    t.tags.(off) - t.base
  else -1

let hits t = t.hits
let misses t = t.misses
let lifts t = t.lifts
