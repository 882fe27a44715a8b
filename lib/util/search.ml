(* One substring scanner for every literal-content matcher in the tree
   (rule engine, siggen, rule lint): first-byte skip plus an inline
   byte-by-byte compare, allocating nothing.  The previous per-caller
   copies each built a fresh String.sub per candidate position.  The
   loops are top-level functions with every argument passed: a local
   closure over the needle and haystack would be allocated per call. *)

let fold c = Char.lowercase_ascii c
let same ~nocase a b = if nocase then fold a = fold b else a = b

(* Do [needle]'s bytes from [k] on occur in [base] at [i + k]? *)
let rec matches_at ~nocase base i needle k =
  k >= String.length needle
  || same ~nocase (String.unsafe_get base (i + k)) (String.unsafe_get needle k)
     && matches_at ~nocase base i needle (k + 1)

(* The leftmost [i] in [\[i, last\]] where [needle] (first byte [c0])
   occurs, or -1. *)
let rec scan ~nocase base i last needle c0 =
  if i > last then -1
  else if same ~nocase (String.unsafe_get base i) c0 && matches_at ~nocase base i needle 1
  then i
  else scan ~nocase base (i + 1) last needle c0

(* Core: find [needle] inside [base.[lo .. hi)] (absolute bounds), or -1. *)
let find_in ~nocase base lo hi needle =
  let m = String.length needle in
  if m = 0 then if lo <= hi then lo else -1
  else if hi - lo < m then -1
  else scan ~nocase base lo (hi - m) needle (String.unsafe_get needle 0)

let find ?(nocase = false) ?(start = 0) ?stop ~needle hay =
  let n = String.length hay in
  let stop = match stop with Some s -> min s n | None -> n in
  if start < 0 || start > n then None
  else
    match find_in ~nocase hay start stop needle with
    | -1 -> None
    | i -> Some i

let contains ?(nocase = false) ~needle hay =
  find_in ~nocase hay 0 (String.length hay) needle >= 0

let find_slice ?(nocase = false) ?(start = 0) ?stop ~needle s =
  let n = Slice.length s in
  let stop = match stop with Some x -> min x n | None -> n in
  if start < 0 || start > n then None
  else
    let off = Slice.offset s in
    match find_in ~nocase (Slice.base s) (off + start) (off + stop) needle with
    | -1 -> None
    | i -> Some (i - off)

let contains_slice ?(nocase = false) ~needle s =
  let off = Slice.offset s in
  find_in ~nocase (Slice.base s) off (off + Slice.length s) needle >= 0
