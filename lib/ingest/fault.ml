module Pcap = Sanids_pcap.Pcap

type kind = Truncate | Bit_flip | Duplicate | Reorder | Garbage_prepend

type t = (kind * float) list

let spec =
  Spec.plan "fault"
    [
      ("truncate", Truncate);
      ("bitflip", Bit_flip);
      ("dup", Duplicate);
      ("reorder", Reorder);
      ("garbage", Garbage_prepend);
    ]
    Spec.prob

let of_string = spec.Spec.parse
let to_string = spec.Spec.print

let mutate_bytes rng plan (data : Slice.t) =
  List.fold_left
    (fun data (kind, p) ->
      match kind with
      | Duplicate | Reorder -> data
      | Truncate ->
          (* a truncation is just a narrower view — no copy *)
          if Rng.chance rng p && Slice.length data > 0 then
            Slice.sub data ~off:0 ~len:(Rng.int rng (Slice.length data))
          else data
      | Bit_flip ->
          if Rng.chance rng p && Slice.length data > 0 then (
            let b = Bytes.of_string (Slice.to_string data) in
            let i = Rng.int rng (Bytes.length b) in
            let bit = 1 lsl Rng.int rng 8 in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bit));
            Slice.of_string (Bytes.to_string b))
          else data
      | Garbage_prepend ->
          if Rng.chance rng p then
            Slice.of_string
              (Rng.bytes rng (Rng.int_in rng 1 16) ^ Slice.to_string data)
          else data)
    data plan

let duplicate_p plan =
  List.fold_left
    (fun acc (k, p) -> if k = Duplicate then acc +. p else acc)
    0. plan

let reorder_p plan =
  List.fold_left
    (fun acc (k, p) -> if k = Reorder then acc +. p else acc)
    0. plan

let mutate_record rng plan (r : Pcap.record) =
  let r = { r with Pcap.data = mutate_bytes rng plan r.Pcap.data } in
  if Rng.chance rng (duplicate_p plan) then [ r; r ] else [ r ]

(* Stream-level reorder: with probability p, hold the current element
   back one slot (swap with its successor).  Lazy and single-pass. *)
let reorder_seq rng p seq =
  let rec go held seq () =
    match Seq.uncons seq with
    | None -> ( match held with None -> Seq.Nil | Some h -> Seq.Cons (h, Seq.empty))
    | Some (x, rest) -> (
        match held with
        | Some h -> Seq.Cons (x, fun () -> Seq.Cons (h, go None rest))
        | None ->
            if Rng.chance rng p then go (Some x) rest ()
            else Seq.Cons (x, go None rest))
  in
  go None seq

let records ~seed plan rs =
  let rng = Rng.create seed in
  let mutated = List.concat_map (mutate_record rng plan) rs in
  List.of_seq (reorder_seq rng (reorder_p plan) (List.to_seq mutated))

let file ~seed plan (f : Pcap.file) =
  { f with Pcap.records = records ~seed plan f.Pcap.records }
