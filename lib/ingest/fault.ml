module Pcap = Sanids_pcap.Pcap

type kind = Truncate | Bit_flip | Duplicate | Reorder | Garbage_prepend

let kind_to_string = function
  | Truncate -> "truncate"
  | Bit_flip -> "bitflip"
  | Duplicate -> "dup"
  | Reorder -> "reorder"
  | Garbage_prepend -> "garbage"

let kind_of_string = function
  | "truncate" -> Some Truncate
  | "bitflip" -> Some Bit_flip
  | "dup" -> Some Duplicate
  | "reorder" -> Some Reorder
  | "garbage" -> Some Garbage_prepend
  | _ -> None

type t = (kind * float) list

let of_string s =
  let parse_tok tok =
    match String.index_opt tok '=' with
    | None -> Error (Printf.sprintf "fault: %S is not kind=probability" tok)
    | Some i -> (
        let name = String.sub tok 0 i in
        let p = String.sub tok (i + 1) (String.length tok - i - 1) in
        match (kind_of_string name, float_of_string_opt p) with
        | None, _ ->
            Error
              (Printf.sprintf
                 "fault: unknown kind %S (want truncate|bitflip|dup|reorder|garbage)"
                 name)
        | _, None ->
            Error (Printf.sprintf "fault: %s wants a probability, got %S" name p)
        | Some k, Some p when p >= 0. && p <= 1. -> Ok (k, p)
        | Some _, Some p ->
            Error
              (Printf.sprintf "fault: %s wants a probability in [0,1], got %g"
                 name p))
  in
  let toks =
    String.split_on_char ',' (String.trim s)
    |> List.map String.trim
    |> List.filter (fun t -> t <> "")
  in
  if toks = [] then Error "fault: empty spec"
  else
    List.fold_left
      (fun acc tok ->
        match (acc, parse_tok tok) with
        | Error _, _ -> acc
        | Ok _, (Error _ as e) -> e
        | Ok l, Ok kp -> Ok (kp :: l))
      (Ok []) toks
    |> Result.map List.rev

let to_string t =
  String.concat ","
    (List.map (fun (k, p) -> Printf.sprintf "%s=%g" (kind_to_string k) p) t)

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

let packets ~seed plan seq =
  let rng = Rng.create seed in
  let mutate_packet pkt =
    let bytes = mutate_bytes rng plan (Slice.of_string (Packet.to_bytes pkt)) in
    match Packet.parse_slice ~ts:pkt.Packet.ts bytes with
    | Ok p -> Some p
    | Error _ -> None
  in
  let mutated =
    Seq.concat_map
      (fun pkt ->
        match mutate_packet pkt with
        | None -> Seq.empty
        | Some p ->
            if Rng.chance rng (duplicate_p plan) then List.to_seq [ p; p ]
            else Seq.return p)
      seq
  in
  reorder_seq rng (reorder_p plan) mutated
