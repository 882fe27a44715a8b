(* Abstract interpretation over the lifted IR: an interval × known-bits
   × taint value domain, a may-write memory summary, and an
   intraprocedural CFG fixpoint with widening at loop heads.

   Soundness discipline: every transformer here over-approximates the
   corresponding concrete operation in the Emulator.  When in
   doubt an operation returns a coarser value — never a tighter one.
   The qcheck oracle in test_absint drives random concrete executions
   through both and checks containment. *)

(* Values are unsigned 32-bit quantities held in native ints (63 bits
   wide), so abstract values carry no boxed fields. *)
let max32 = 0xFFFF_FFFF
let two32 = 0x1_0000_0000

let u32 (c : int32) = Int32.to_int c land max32
let lmask a = (1 lsl a) - 1

module V = struct
  (* Non-bottom invariant: 0 <= lo <= hi <= max32; [known] masks the bits
     every member shares and [bits] holds their values (so
     [bits land lnot known = 0]).  Members are the values in [lo, hi]
     that agree with [bits] on [known].  A congruence mod 2^k is the case
     where the low k bits are known; the bits above it are what folds
     mask chains such as [and eax,m1; and eax,m2] with disjoint masks. *)
  type v = { lo : int; hi : int; known : int; bits : int; taint : bool }
  type t = Bot | Val of v

  let bot = Bot

  let imin (a : int) b = if a < b then a else b
  let imax (a : int) b = if a > b then a else b

  (* The smallest all-ones mask 2^k - 1 that is >= v. *)
  let bit_ceiling v =
    let rec go m = if m >= v then m else go ((m lsl 1) lor 1) in
    go 0

  (* How many bits, from bit 0 up, are known: the congruence's exponent. *)
  let trailing_known known =
    let rec go n = if n < 32 && (known lsr n) land 1 = 1 then go (n + 1) else n in
    go 0

  (* Reduce the interval and the known bits against each other; Bot when
     they are found inconsistent.  A singleton always has every bit known,
     so [is_const] only needs the interval. *)
  let norm ~lo ~hi ~known ~bits ~taint =
    let lo = imax 0 lo and hi = imin max32 hi in
    if lo > hi then Bot
    else
      let known = known land max32 in
      let bits = bits land known in
      (* every value in [lo, hi] shares the bits above the highest bit
         where lo and hi differ *)
      let prefix = bit_ceiling (lo lxor hi) lxor max32 in
      if (bits lxor lo) land known land prefix <> 0 then Bot
      else
        let known = known lor prefix in
        let bits = bits lor (lo land prefix) in
        (* the smallest and largest values the known bits allow *)
        let lo = imax lo bits and hi = imin hi (bits lor (known lxor max32)) in
        let align = trailing_known known in
        let lo, hi =
          if align = 0 then (lo, hi)
          else
            (* round the endpoints onto the low known bits *)
            let m = 1 lsl align in
            let res = bits land (m - 1) in
            let up v =
              let d = (res - (v mod m)) mod m in
              v + if d < 0 then d + m else d
            in
            let down v =
              let d = ((v mod m) - res) mod m in
              v - if d < 0 then d + m else d
            in
            (up lo, down hi)
        in
        if lo > hi then Bot
        else if lo = hi then Val { lo; hi; known = max32; bits = lo; taint }
        else Val { lo; hi; known; bits; taint }

  (* The low [align] bits known to be [res]. *)
  let norm_cong ~lo ~hi ~align ~res ~taint =
    norm ~lo ~hi ~known:(lmask align) ~bits:res ~taint

  let top = Val { lo = 0; hi = max32; known = 0; bits = 0; taint = true }
  let top_clean = Val { lo = 0; hi = max32; known = 0; bits = 0; taint = false }
  let byte = norm ~lo:0 ~hi:255 ~known:0 ~bits:0 ~taint:true

  let const c =
    let u = u32 c in
    Val { lo = u; hi = u; known = max32; bits = u; taint = false }

  let range lo hi =
    let lo = max 0L lo and hi = min (Int64.of_int max32) hi in
    if Int64.compare lo hi > 0 then Bot
    else norm ~lo:(Int64.to_int lo) ~hi:(Int64.to_int hi) ~known:0 ~bits:0 ~taint:false

  let is_bot = function Bot -> true | Val _ -> false

  let is_const = function
    | Val { lo; hi; _ } when lo = hi -> Some (Int32.of_int lo)
    | Bot | Val _ -> None

  let contains t c =
    match t with
    | Bot -> false
    | Val { lo; hi; known; bits; _ } ->
        let u = u32 c in
        lo <= u && u <= hi && u land known = bits

  let taint = function Bot -> false | Val v -> v.taint
  let tainted = function Bot -> Bot | Val v -> Val { v with taint = true }

  let bounds = function
    | Bot -> None
    | Val { lo; hi; _ } -> Some (Int64.of_int lo, Int64.of_int hi)

  let size = function
    | Bot -> 0L
    | Val { lo; hi; known; _ } ->
        Int64.of_int (((hi - lo) lsr trailing_known known) + 1)

  let equal a b =
    match (a, b) with
    | Bot, Bot -> true
    | Val a, Val b ->
        a.lo = b.lo && a.hi = b.hi && a.known = b.known && a.bits = b.bits
        && a.taint = b.taint
    | Bot, Val _ | Val _, Bot -> false

  let leq a b =
    match (a, b) with
    | Bot, _ -> true
    | Val _, Bot -> false
    | Val a, Val b ->
        b.lo <= a.lo && a.hi <= b.hi
        && b.known land lnot a.known = 0
        && a.bits land b.known = b.bits
        && ((not a.taint) || b.taint)

  (* Bits known in both and equal in both. *)
  let bits_join a b =
    let known = a.known land b.known land lnot (a.bits lxor b.bits) in
    (known, a.bits land known)

  let join a b =
    match (a, b) with
    | Bot, x | x, Bot -> x
    | Val a, Val b ->
        let known, bits = bits_join a b in
        norm ~lo:(imin a.lo b.lo) ~hi:(imax a.hi b.hi) ~known ~bits
          ~taint:(a.taint || b.taint)

  let widen old next =
    match (old, next) with
    | Bot, x | x, Bot -> x
    | Val o, Val n ->
        let known, bits = bits_join o n in
        let lo = if n.lo < o.lo then 0 else o.lo in
        let hi = if n.hi > o.hi then max32 else o.hi in
        (* a jumped bound must not be pulled back by the known bits its
           old value implied: keep only the congruence then *)
        let known =
          if lo = o.lo && hi = o.hi then known else lmask (trailing_known known)
        in
        norm ~lo ~hi ~known ~bits ~taint:(o.taint || n.taint)

  let narrow wide refined =
    match (wide, refined) with
    | Bot, _ | _, Bot -> refined
    | Val w, Val r ->
        let lo = if w.lo = 0 then r.lo else w.lo in
        let hi = if w.hi = max32 then r.hi else w.hi in
        norm ~lo ~hi ~known:w.known ~bits:w.bits ~taint:w.taint

  (* --- transformers ------------------------------------------------- *)

  let tainted_if t v = if t then tainted v else v

  let lift2_const f a b =
    match (is_const a, is_const b) with
    | Some x, Some y -> Some (tainted_if (taint a || taint b) (const (f x y)))
    | _, _ -> None

  (* Carries only travel upwards, so the low bits known in both operands
     give the low bits of a sum. *)
  let add a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Val x, Val y ->
        let t = x.taint || y.taint in
        let align = imin (trailing_known x.known) (trailing_known y.known) in
        let res = x.bits + y.bits in
        let lo = x.lo + y.lo and hi = x.hi + y.hi in
        if hi <= max32 then norm_cong ~lo ~hi ~align ~res ~taint:t
        else if lo >= two32 then
          norm_cong ~lo:(lo - two32) ~hi:(hi - two32) ~align ~res ~taint:t
        else norm_cong ~lo:0 ~hi:max32 ~align ~res ~taint:t

  let neg a =
    match a with
    | Bot -> Bot
    | Val x ->
        let align = trailing_known x.known and res = -x.bits in
        if x.lo = 0 && x.hi = 0 then a
        else if x.lo >= 1 then
          norm_cong ~lo:(two32 - x.hi) ~hi:(two32 - x.lo) ~align ~res ~taint:x.taint
        else norm_cong ~lo:0 ~hi:max32 ~align ~res ~taint:x.taint

  let sub a b = add a (neg b)
  let add_wrapped v c = add v (const c)

  (* [bits] are the known ones; [known lxor bits] the known zeros. *)
  let zeros x = x.known lxor x.bits

  let logand a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Val x, Val y -> (
        match lift2_const Int32.logand a b with
        | Some r -> r
        | None ->
            let ones = x.bits land y.bits in
            norm ~lo:0 ~hi:(imin x.hi y.hi)
              ~known:(ones lor zeros x lor zeros y)
              ~bits:ones ~taint:(x.taint || y.taint))

  let logor a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Val x, Val y -> (
        match lift2_const Int32.logor a b with
        | Some r -> r
        | None ->
            let ones = x.bits lor y.bits in
            norm ~lo:(imax x.lo y.lo) ~hi:(bit_ceiling (imax x.hi y.hi))
              ~known:(ones lor (zeros x land zeros y))
              ~bits:ones ~taint:(x.taint || y.taint))

  let logxor a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Val x, Val y -> (
        match lift2_const Int32.logxor a b with
        | Some r -> r
        | None ->
            norm ~lo:0 ~hi:(bit_ceiling (imax x.hi y.hi)) ~known:(x.known land y.known)
              ~bits:(x.bits lxor y.bits) ~taint:(x.taint || y.taint))

  let lognot a =
    match a with
    | Bot -> Bot
    | Val x ->
        norm ~lo:(max32 - x.hi) ~hi:(max32 - x.lo) ~known:x.known ~bits:(zeros x)
          ~taint:x.taint

  (* Low bits known to be zero. *)
  let trailing_zeros x =
    let rec go n =
      if n < 32 && (x.known lsr n) land 1 = 1 && (x.bits lsr n) land 1 = 0 then go (n + 1)
      else n
    in
    go 0

  (* The low bits known in both factors give the low bits of the
     product, and the factors' trailing zeros add up. *)
  let mul a b =
    match (a, b) with
    | Bot, _ | _, Bot -> Bot
    | Val x, Val y -> (
        match lift2_const Int32.mul a b with
        | Some r -> r
        | None ->
            let t = x.taint || y.taint in
            let align = imin (trailing_known x.known) (trailing_known y.known) in
            let known = lmask align lor lmask (imin 32 (trailing_zeros x + trailing_zeros y)) in
            let bits = x.bits * y.bits land lmask align in
            if x.hi = 0 || y.hi <= max32 / x.hi then
              norm ~lo:(x.lo * y.lo) ~hi:(x.hi * y.hi) ~known ~bits ~taint:t
            else norm ~lo:0 ~hi:max32 ~known ~bits ~taint:t)

  let rotl v n = ((v lsl n) lor (v lsr (32 - n))) land max32

  (* Mirror of Emulator.do_shift at 32-bit width (count land 31; rotate
     count further mod 32), minus the flag effects. *)
  let shift (op : Insn.shift) a count =
    let n = count land 31 in
    if n = 0 then a
    else
      match a with
      | Bot -> Bot
      | Val x -> (
          match is_const a with
          | Some v ->
              let r =
                match op with
                | Insn.Shl -> Int32.shift_left v n
                | Insn.Shr -> Int32.shift_right_logical v n
                | Insn.Sar -> Int32.shift_right v n
                | Insn.Rol ->
                    Int32.logor (Int32.shift_left v n)
                      (Int32.shift_right_logical v (32 - n))
                | Insn.Ror ->
                    Int32.logor
                      (Int32.shift_right_logical v n)
                      (Int32.shift_left v (32 - n))
              in
              if x.taint then tainted (const r) else const r
          | None -> (
              (* the bits a right shift brings in: zeros, copies of a
                 known sign bit, or unknown *)
              let vacated = max32 lxor (max32 lsr n) in
              let shr ~lo ~hi ~fill =
                norm ~lo ~hi
                  ~known:((x.known lsr n) lor if fill = None then 0 else vacated)
                  ~bits:((x.bits lsr n) lor if fill = Some true then vacated else 0)
                  ~taint:x.taint
              in
              match op with
              | Insn.Shl ->
                  let known = (x.known lsl n) lor lmask n and bits = x.bits lsl n in
                  if x.hi <= max32 lsr n then
                    norm ~lo:(x.lo lsl n) ~hi:(x.hi lsl n) ~known ~bits ~taint:x.taint
                  else norm ~lo:0 ~hi:max32 ~known ~bits ~taint:x.taint
              | Insn.Shr -> shr ~lo:(x.lo lsr n) ~hi:(x.hi lsr n) ~fill:(Some false)
              | Insn.Sar ->
                  if x.hi <= 0x7FFF_FFFF then
                    shr ~lo:(x.lo lsr n) ~hi:(x.hi lsr n) ~fill:(Some false)
                  else
                    let sign = 0x8000_0000 in
                    let fill =
                      if x.known land sign = 0 then None else Some (x.bits land sign <> 0)
                    in
                    shr ~lo:0 ~hi:max32 ~fill
              | Insn.Rol | Insn.Ror ->
                  let n = if op = Insn.Rol then n else 32 - n in
                  norm ~lo:0 ~hi:max32 ~known:(rotl x.known n) ~bits:(rotl x.bits n)
                    ~taint:x.taint))

  let low_byte a = logand a (const 0xFFl)

  (* The byte is constant once its eight bits are known, e.g. after
     [mov al, imm] over an unknown register. *)
  let low8 a =
    match is_const (low_byte a) with
    | Some b -> Some (Int32.to_int b land 0xFF)
    | None -> None

  let merge_low8 old b =
    match (old, is_const b) with
    | Bot, _ -> Bot
    | Val x, Some l ->
        (* (v land lnot 0xFF) lor l is monotone in v, so it maps the
           interval's endpoints; the written byte becomes known bits *)
        let l = u32 l land 0xFF in
        let hi_bits v = v land lnot 0xFF lor l in
        norm ~lo:(hi_bits x.lo) ~hi:(hi_bits x.hi) ~known:(x.known lor 0xFF)
          ~bits:(hi_bits x.bits) ~taint:(x.taint || taint b)
    | Val _, None -> logor (logand old (const 0xFFFF_FF00l)) (low_byte b)

  let without t c =
    match t with
    | Bot -> Bot
    | Val x ->
        if not (contains t c) then t
        else
          let u = u32 c in
          if x.lo = x.hi then Bot
          else if u = x.lo then
            norm ~lo:(x.lo + 1) ~hi:x.hi ~known:x.known ~bits:x.bits ~taint:x.taint
          else if u = x.hi then
            norm ~lo:x.lo ~hi:(x.hi - 1) ~known:x.known ~bits:x.bits ~taint:x.taint
          else t

end

module Region = struct
  type t = No_writes | Writes of { addr : V.t; width : int }

  let empty = No_writes
  let top = Writes { addr = V.top; width = 4 }

  let join a b =
    match (a, b) with
    | No_writes, x | x, No_writes -> x
    | Writes a, Writes b ->
        Writes { addr = V.join a.addr b.addr; width = max a.width b.width }

  let store t ~addr ~width =
    if V.is_bot addr then t else join t (Writes { addr; width })

  let widen a b =
    match (a, b) with
    | No_writes, x | x, No_writes -> x
    | Writes a, Writes b ->
        Writes { addr = V.widen a.addr b.addr; width = max a.width b.width }

  let equal a b =
    match (a, b) with
    | No_writes, No_writes -> true
    | Writes a, Writes b -> V.equal a.addr b.addr && a.width = b.width
    | No_writes, Writes _ | Writes _, No_writes -> false

  let writes = function No_writes -> false | Writes _ -> true

  let max_bytes = function
    | No_writes -> Some 0L
    | Writes { addr; width } -> (
        match V.bounds addr with
        | None -> Some 0L
        | Some (lo, hi) ->
            let span = Int64.add (Int64.sub hi lo) (Int64.of_int width) in
            let by_count = Int64.mul (V.size addr) (Int64.of_int width) in
            let b = min span by_count in
            if Int64.compare b (Int64.of_int max32) >= 0 then None else Some b)

  let may_touch t ~lo ~hi =
    match t with
    | No_writes -> false
    | Writes { addr; width } -> (
        match V.bounds addr with
        | None -> false
        | Some (alo, ahi) ->
            let lo = max 0L (Int64.sub lo (Int64.of_int (width - 1))) in
            Int64.compare alo hi <= 0 && Int64.compare ahi lo >= 0)

end

type state = { regs : V.t array; stack : V.t list; written : Region.t }

let max_stack = 128

let initial =
  { regs = Array.make 8 V.top_clean; stack = []; written = Region.empty }

let entry_state ?(arena_size = Emulator.default_arena_size) () =
  let regs = Array.make 8 (V.const 0l) in
  regs.(Reg.code Reg.ESP) <- V.const (Emulator.initial_esp ~arena_size);
  { regs; stack = []; written = Region.empty }

let get t r = t.regs.(Reg.code r)

let set t r v =
  let regs = Array.copy t.regs in
  regs.(Reg.code r) <- v;
  { t with regs }

let value_of t (v : Sem.value) =
  match v with
  | Sem.Vconst c -> V.const c
  | Sem.Vreg r -> get t r
  | Sem.Vunknown -> V.top

let record_store t ~addr ~width =
  { t with written = Region.store t.written ~addr ~width }

(* Keep at most [max_stack] slots by forgetting the deepest ones: slot k
   stays [esp+4k], so the slots that remain are still aligned. *)
let cap stack =
  if List.length stack > max_stack then List.filteri (fun i _ -> i < max_stack) stack
  else stack

let push_stack t v = { t with stack = cap (v :: t.stack) }

(* ESP moved by [amount] bytes: a multiple of 4 drops popped slots or adds
   unknown ones; any other amount leaves no slot aligned. *)
let move_stack stack amount =
  let k = Int32.to_int amount in
  let rec drop n l = match l with _ :: r when n > 0 -> drop (n - 1) r | _ -> l in
  let rec grow n l = if n <= 0 then l else grow (n - 1) (V.top :: l) in
  if k mod 4 <> 0 then []
  else if k >= 0 then drop (k / 4) stack
  else cap (grow (min (-k / 4) max_stack) stack)

(* A write to ESP by an unknown amount: no slot can be located. *)
let esp_lost dst t = if Reg.equal dst Reg.ESP then { t with stack = [] } else t

(* ESP-relative slot access: the abstract stack is a LIFO aligned with the
   concrete stack (push/pop and ESP moves by known amounts keep them in
   sync; any other ESP write empties it), so slot k lives at [esp+4k]. *)
let slot_of_esp (ptr : Reg.t) (disp : int32) depth =
  if
    Reg.equal ptr Reg.ESP
    && Int32.compare disp 0l >= 0
    && Int32.rem disp 4l = 0l
    && Int32.to_int disp / 4 < depth
  then Some (Int32.to_int disp / 4)
  else None

let stack_get t k = List.nth t.stack k

let stack_set t k v =
  { t with stack = List.mapi (fun i x -> if i = k then v else x) t.stack }

let width_bytes = function Insn.S8bit -> 1 | Insn.S32bit -> 4

(* Abstract rop application at 32-bit width. *)
let apply_rop_32 (op : Sem.rop) a b =
  match op with
  | Sem.Ra Insn.Add -> V.add a b
  | Sem.Ra Insn.Sub -> V.sub a b
  | Sem.Ra Insn.And -> V.logand a b
  | Sem.Ra Insn.Or -> V.logor a b
  | Sem.Ra Insn.Xor -> V.logxor a b
  | Sem.Ra Insn.Adc ->
      (* unknown carry-in: result is sum or sum+1 *)
      let s = V.add a b in
      V.join s (V.add_wrapped s 1l)
  | Sem.Ra Insn.Sbb ->
      let s = V.sub a b in
      V.join s (V.add_wrapped s (-1l))
  | Sem.Ra Insn.Cmp -> a
  | Sem.Rnot -> V.lognot a
  | Sem.Rneg -> V.neg a
  | Sem.Rshift s -> (
      match V.is_const b with
      | Some n -> V.shift s a (Int32.to_int (Int32.logand n 31l))
      | None ->
          let t = V.taint a || V.taint b in
          if t then V.top else V.top_clean)

let byte8 v = if V.taint v then V.tainted (V.low_byte v) else V.low_byte v

let byte_top t = if t then V.byte else V.range 0L 255L

(* 8-bit rop: compute on the low bytes, merge back.  Exact when both low
   bytes are constant; otherwise an unknown byte. *)
let apply_rop_8 (op : Sem.rop) old src =
  let lo_old = byte8 old and lo_src = byte8 src in
  let t = V.taint old || V.taint src in
  let result =
    match (V.is_const lo_old, V.is_const lo_src) with
    | Some a, Some b -> (
        let a = Int32.to_int a land 0xFF and b = Int32.to_int b land 0xFF in
        let c r = V.const (Int32.of_int (r land 0xFF)) in
        match op with
        | Sem.Ra Insn.Add -> c (a + b)
        | Sem.Ra Insn.Sub -> c (a - b)
        | Sem.Ra Insn.And -> c (a land b)
        | Sem.Ra Insn.Or -> c (a lor b)
        | Sem.Ra Insn.Xor -> c (a lxor b)
        | Sem.Ra Insn.Adc | Sem.Ra Insn.Sbb | Sem.Ra Insn.Cmp -> byte_top t
        | Sem.Rnot -> c (lnot a)
        | Sem.Rneg -> c (-a)
        | Sem.Rshift s ->
            let n = b land 31 in
            if n = 0 then c a
            else
              c
                (match s with
                | Insn.Shl -> a lsl n
                | Insn.Shr -> a lsr n
                | Insn.Sar ->
                    let signed = if a >= 0x80 then a - 0x100 else a in
                    signed asr n
                | Insn.Rol ->
                    let n = n land 7 in
                    (a lsl n) lor (a lsr (8 - n))
                | Insn.Ror ->
                    let n = n land 7 in
                    (a lsr n) lor (a lsl (8 - n))))
    | _, _ -> (
        match op with
        | Sem.Ra Insn.And -> V.logand lo_old lo_src
        | Sem.Ra Insn.Or -> V.logor lo_old lo_src
        | Sem.Ra Insn.Xor -> V.logxor lo_old lo_src
        | _ -> byte_top t)
  in
  let result = if t then V.tainted result else result in
  V.merge_low8 old result

let clobber t regs = List.fold_left (fun acc r -> set acc r V.top) t regs

let mem_addr t ptr disp = V.add_wrapped (get t ptr) disp

let step t (s : Sem.t) =
  match s with
  | Sem.S_load { width; dst; ptr; disp } -> (
      match slot_of_esp ptr disp (List.length t.stack) with
      | Some k -> (
          let v = stack_get t k in
          esp_lost dst
            (match width with
            | Insn.S32bit -> set t dst v
            | Insn.S8bit -> set t dst (V.merge_low8 (get t dst) (byte8 v))))
      | None -> (
          (* unmodelled memory: payload bytes — tainted unknowns *)
          esp_lost dst
            (match width with
            | Insn.S32bit -> set t dst V.top
            | Insn.S8bit -> set t dst (V.merge_low8 (get t dst) V.byte))))
  | Sem.S_store { width; src; ptr; disp } -> (
      let addr = mem_addr t ptr disp in
      let t = record_store t ~addr ~width:(width_bytes width) in
      match slot_of_esp ptr disp (List.length t.stack) with
      | Some k -> (
          let v = value_of t src in
          match width with
          | Insn.S32bit -> stack_set t k v
          | Insn.S8bit -> stack_set t k (V.merge_low8 (stack_get t k) (byte8 v)))
      | None -> t)
  | Sem.S_memop { op; width; ptr; disp; src } -> (
      let addr = mem_addr t ptr disp in
      let t = record_store t ~addr ~width:(width_bytes width) in
      match slot_of_esp ptr disp (List.length t.stack) with
      | Some k -> (
          let a = stack_get t k in
          let b = value_of t src in
          match width with
          | Insn.S32bit -> stack_set t k (apply_rop_32 op a b)
          | Insn.S8bit -> stack_set t k (apply_rop_8 op a b))
      | None -> t)
  | Sem.S_cmp | Sem.S_nop -> t
  | Sem.S_regop { op; width; dst; src } -> (
      let a = get t dst in
      let b = value_of t src in
      let t' =
        match width with
        | Insn.S32bit -> set t dst (apply_rop_32 op a b)
        | Insn.S8bit -> set t dst (apply_rop_8 op a b)
      in
      (* [add esp, reg] with a known register moves the slots like an
         immediate would *)
      match (Reg.equal dst Reg.ESP, op, width, V.is_const b) with
      | true, Sem.Ra Insn.Add, Insn.S32bit, Some c -> { t' with stack = move_stack t.stack c }
      | true, Sem.Ra Insn.Sub, Insn.S32bit, Some c ->
          { t' with stack = move_stack t.stack (Int32.neg c) }
      | _ -> esp_lost dst t')
  | Sem.S_set { width; dst; src } -> (
      let b = value_of t src in
      esp_lost dst
        (match width with
        | Insn.S32bit -> set t dst b
        | Insn.S8bit -> set t dst (V.merge_low8 (get t dst) (byte8 b))))
  | Sem.S_advance { reg; amount; _ } ->
      let t' = set t reg (V.add_wrapped (get t reg) amount) in
      if Reg.equal reg Reg.ESP then { t' with stack = move_stack t.stack amount }
      else t'
  | Sem.S_lea { dst; base; index; disp } ->
      let base_v = match base with None -> V.const 0l | Some b -> get t b in
      let index_v =
        match index with
        | None -> V.const 0l
        | Some (r, sc) ->
            let m =
              match sc with Insn.S1 -> 1l | Insn.S2 -> 2l | Insn.S4 -> 4l | Insn.S8 -> 8l
            in
            V.mul (get t r) (V.const m)
      in
      esp_lost dst (set t dst (V.add_wrapped (V.add base_v index_v) disp))
  | Sem.S_xchg (a, b) ->
      let va = get t a and vb = get t b in
      esp_lost a (esp_lost b (set (set t a vb) b va))
  | Sem.S_push v ->
      (* evaluate before adjusting ESP: [push esp] pushes the old value *)
      let pushed = value_of t v in
      let esp = V.add_wrapped (get t Reg.ESP) (-4l) in
      let t = set t Reg.ESP esp in
      let t = record_store t ~addr:esp ~width:4 in
      push_stack t pushed
  | Sem.S_pop r -> (
      match t.stack with
      | top :: rest ->
          let t = set t r top in
          let t = { t with stack = rest } in
          (* pop into ESP overrides the increment, as in hardware *)
          if Reg.equal r Reg.ESP then { t with stack = [] }
          else set t Reg.ESP (V.add_wrapped (get t Reg.ESP) 4l)
      | [] ->
          let t = set t r V.top in
          if Reg.equal r Reg.ESP then t
          else set t Reg.ESP (V.add_wrapped (get t Reg.ESP) 4l))
  | Sem.S_branch { kind = `Loop | `Loop_cc; _ } ->
      set t Reg.ECX (V.add_wrapped (get t Reg.ECX) (-1l))
  | Sem.S_branch { kind = `Jmp | `Cond | `Jecxz | `Call; _ } -> t
  | Sem.S_syscall _ -> set t Reg.EAX V.top_clean
  | Sem.S_ret ->
      let t = set t Reg.ESP (V.add_wrapped (get t Reg.ESP) 4l) in
      { t with stack = (match t.stack with _ :: r -> r | [] -> []) }
  | Sem.S_halt -> t
  | Sem.S_other { writes; writes_mem } ->
      let t = clobber t writes in
      let t =
        if writes_mem then { t with written = Region.top } else t
      in
      if List.exists (Reg.equal Reg.ESP) writes then { t with stack = [] } else t

let step_insn t i = Array.fold_left step t (Sem.lift i)

let reg32 t r = V.is_const (get t r)
let reg_low8 t r = V.low8 (get t r)
let value t v = V.is_const (value_of t v)
let value_low8 t v = V.low8 (value_of t v)

let slot_value t k =
  if k < 0 then None
  else match List.nth_opt t.stack k with Some v -> V.is_const v | None -> None

let zip_state f a b =
  let regs = Array.init 8 (fun i -> f a.regs.(i) b.regs.(i)) in
  let stack =
    if List.length a.stack = List.length b.stack then
      List.map2 f a.stack b.stack
    else []
  in
  { regs; stack; written = Region.join a.written b.written }

let join a b = zip_state V.join a b

let widen a b =
  let s = zip_state V.widen a b in
  { s with written = Region.widen a.written b.written }

let narrow a b = zip_state V.narrow a b

let equal a b =
  (try Array.iter2 (fun x y -> if not (V.equal x y) then raise Exit) a.regs b.regs;
       true
   with Exit -> false)
  && List.length a.stack = List.length b.stack
  && List.for_all2 V.equal a.stack b.stack
  && Region.equal a.written b.written

type result = {
  in_states : (int, state) Hashtbl.t;
  out : state;
  reachable : int list;
}

(* One abstract execution of a block: fold its instructions.  A [call]
   terminator pushes a *constant* return address (the concrete emulator
   pushes exactly [base + return_to]), which is what turns GetPC
   call/pop sequences into constant pointers. *)
let exec_block ~base (b : Cfg.block) st =
  List.fold_left
    (fun st (d : Decode.decoded) ->
      match d.Decode.insn with
      | Insn.Call_rel _ ->
          let ret = Int32.add base (Int32.of_int (d.Decode.off + d.Decode.len)) in
          let esp = V.add_wrapped (get st Reg.ESP) (-4l) in
          let st = set st Reg.ESP esp in
          let st = record_store st ~addr:esp ~width:4 in
          push_stack st (V.const ret)
      | _ -> step_insn st d.Decode.insn)
    st b.Cfg.insns

let analyze ?(entry = initial) ?(base = Emulator.code_base) cfg =
  let widen_at =
    List.fold_left
      (fun acc (_, target) -> target :: acc)
      [] (Cfg.back_edges cfg)
  in
  let in_states : (int, state) Hashtbl.t = Hashtbl.create 16 in
  let visits : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let worklist = Queue.create () in
  (match Cfg.block_at cfg 0 with
  | Some _ ->
      Hashtbl.replace in_states 0 entry;
      Queue.add 0 worklist
  | None -> ());
  let budget = ref (64 * (Cfg.block_count cfg + 1)) in
  while (not (Queue.is_empty worklist)) && !budget > 0 do
    decr budget;
    let off = Queue.take worklist in
    match Cfg.block_at cfg off with
    | None -> ()
    | Some b ->
        let st = Hashtbl.find in_states off in
        let out = exec_block ~base b st in
        List.iter
          (fun succ ->
            let n = Option.value (Hashtbl.find_opt visits succ) ~default:0 in
            Hashtbl.replace visits succ (n + 1);
            let proposed =
              match Hashtbl.find_opt in_states succ with
              | None -> out
              | Some old ->
                  let joined = join old out in
                  if List.mem succ widen_at && n >= 2 then widen old joined
                  else joined
            in
            match Hashtbl.find_opt in_states succ with
            | Some old when equal old proposed -> ()
            | _ ->
                Hashtbl.replace in_states succ proposed;
                Queue.add succ worklist)
          (Cfg.successors cfg b)
  done;
  (* one narrowing sweep: recompute every reachable block's out-state and
     refine widened in-states where the recomputation is tighter *)
  let reachable =
    Hashtbl.fold (fun k _ acc -> k :: acc) in_states [] |> List.sort compare
  in
  let outs = Hashtbl.create 16 in
  List.iter
    (fun off ->
      match Cfg.block_at cfg off with
      | None -> ()
      | Some b -> Hashtbl.replace outs off (exec_block ~base b (Hashtbl.find in_states off)))
    reachable;
  List.iter
    (fun off ->
      if List.mem off widen_at then begin
        let preds_out =
          List.filter_map
            (fun p ->
              match Cfg.block_at cfg p with
              | Some pb when List.mem off (Cfg.successors cfg pb) ->
                  Hashtbl.find_opt outs p
              | _ -> None)
            reachable
        in
        let recomputed =
          List.fold_left
            (fun acc o -> match acc with None -> Some o | Some a -> Some (join a o))
            (if off = 0 then Some entry else None)
            preds_out
        in
        match recomputed with
        | Some r ->
            Hashtbl.replace in_states off (narrow (Hashtbl.find in_states off) r)
        | None -> ()
      end)
    reachable;
  let out =
    List.fold_left
      (fun acc off ->
        let o =
          match Cfg.block_at cfg off with
          | Some b -> exec_block ~base b (Hashtbl.find in_states off)
          | None -> Hashtbl.find in_states off
        in
        match acc with None -> Some o | Some a -> Some (join a o))
      None reachable
  in
  let out = Option.value out ~default:entry in
  { in_states; out; reachable }
