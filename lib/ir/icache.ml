type entry = { off : int; len : int; insn : Insn.t; sems : Sem.t array }

(* The memo is cut into chunks of at most [chunk] slots: 256 words is the
   largest block the runtime allocates in the minor heap, so no slot array
   is ever a major-heap block whose stores of young entries the next
   minor collection would have to promote.  [stamps]/[index] are the walk
   scratch: offset [off] is on the current walk iff [stamps.(off) = walk],
   and then [index.(off)] is its step index.  They hold only immediates,
   so their size does not matter to the collector. *)
let chunk_bits = 8
let chunk = 1 lsl chunk_bits

type t = {
  code : string;
  chunks : entry option array array;  (** [None]: not decoded yet *)
  mutable hits : int;
  mutable misses : int;
  stamps : int array;
  index : int array;
  mutable walk : int;
}

let create code =
  let n = max 1 (String.length code) in
  {
    code;
    (* the last chunk is sized to the remainder, so a small region costs
       one small array *)
    chunks =
      Array.init
        ((n + chunk - 1) lsr chunk_bits)
        (fun i -> Array.make (min chunk (n - (i lsl chunk_bits))) None);
    hits = 0;
    misses = 0;
    stamps = Array.make n 0;
    index = Array.make n 0;
    walk = 0;
  }

let code t = t.code

let decode t off =
  if off < 0 || off >= String.length t.code then None
  else
    let slots = t.chunks.(off lsr chunk_bits) in
    let i = off land (chunk - 1) in
    match slots.(i) with
    | Some _ as e ->
        t.hits <- t.hits + 1;
        e
    | None -> (
        t.misses <- t.misses + 1;
        (* [Decode.at] answers every in-range offset ([Insn.Bad] for a
           byte with no decoding) *)
        match Decode.at t.code off with
        | None -> None
        | Some d ->
            let e =
              Some
                {
                  off;
                  len = d.Decode.len;
                  insn = d.Decode.insn;
                  sems = Array.of_list (Sem.lift d.Decode.insn);
                }
            in
            slots.(i) <- e;
            e)

let start_walk t = t.walk <- t.walk + 1
let visited t off = t.stamps.(off) = t.walk

let visit t off i =
  t.stamps.(off) <- t.walk;
  t.index.(off) <- i

let step_index t off =
  if off >= 0 && off < Array.length t.stamps && t.stamps.(off) = t.walk then
    t.index.(off)
  else -1

let hits t = t.hits
let misses t = t.misses
