type entry = { insn : Insn.t; len : int; sems : Sem.t array }

(* slots.(off): None = never decoded; Some None = decoded, no instruction;
   Some (Some e) = decoded instruction.  [stamps]/[index] are the walk
   scratch: offset [off] is on the current walk iff
   [stamps.(off) = walk], and then [index.(off)] is its step index. *)
type t = {
  code : string;
  slots : entry option option array;
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
    slots = Array.make n None;
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
    match t.slots.(off) with
    | Some e ->
        t.hits <- t.hits + 1;
        e
    | None ->
        t.misses <- t.misses + 1;
        let e =
          match Decode.at t.code off with
          | None -> None
          | Some d ->
              Some
                {
                  insn = d.Decode.insn;
                  len = d.Decode.len;
                  sems = Array.of_list (Sem.lift d.Decode.insn);
                }
        in
        t.slots.(off) <- Some e;
        e

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

let hit_ratio t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total
