type terminator =
  | Fallthrough
  | Jump of int
  | Branch of { taken : int; fallthrough : int }
  | Call of { target : int; return_to : int }
  | Return
  | Halt
  | Out_of_region

type block = {
  start : int;
  insns : Decode.decoded list;
  terminator : terminator;
}

type t = { region_len : int; table : (int, block) Hashtbl.t; order : int list }

let build code =
  let n = String.length code in
  let ds = Decode.all code in
  (* pass 1: leaders *)
  let leaders = Hashtbl.create 32 in
  let lead o = if o >= 0 && o < n then Hashtbl.replace leaders o () in
  lead 0;
  Array.iter
    (fun (d : Decode.decoded) ->
      let next = d.Decode.off + d.Decode.len in
      match Insn.flow d.Decode.insn with
      | Insn.Jump disp | Insn.Branch disp | Insn.Call disp ->
          lead (next + disp);
          lead next
      | Insn.Return | Insn.Halt -> lead next
      | Insn.Next -> ())
    ds;
  (* pass 2: slice the sweep into blocks at leaders and transfers *)
  let table = Hashtbl.create 32 in
  let order = ref [] in
  let current = ref [] in
  let current_start = ref 0 in
  let flush terminator =
    match !current with
    | [] -> ()
    | insns ->
        let b = { start = !current_start; insns = List.rev insns; terminator } in
        Hashtbl.replace table b.start b;
        order := b.start :: !order
  in
  Array.iter
    (fun (d : Decode.decoded) ->
      if !current = [] then current_start := d.Decode.off
      else if Hashtbl.mem leaders d.Decode.off then begin
        flush Fallthrough;
        current := [];
        current_start := d.Decode.off
      end;
      current := d :: !current;
      let next = d.Decode.off + d.Decode.len in
      let in_region o = o >= 0 && o < n in
      let close term =
        flush term;
        current := []
      in
      match Insn.flow d.Decode.insn with
      | Insn.Next -> ()
      | Insn.Jump disp ->
          let t = next + disp in
          close (if in_region t then Jump t else Out_of_region)
      | Insn.Branch disp ->
          let t = next + disp in
          close
            (if in_region t || in_region next then Branch { taken = t; fallthrough = next }
             else Out_of_region)
      | Insn.Call disp ->
          let t = next + disp in
          close (if in_region t then Call { target = t; return_to = next } else Out_of_region)
      | Insn.Return -> close Return
      | Insn.Halt -> close Halt)
    ds;
  flush Halt;
  { region_len = n; table; order = List.rev !order }

let blocks t = List.filter_map (Hashtbl.find_opt t.table) t.order
let block_at t off = Hashtbl.find_opt t.table off
let block_count t = List.length t.order

let successors t (b : block) =
  let ok o = Hashtbl.mem t.table o in
  let next_block_after off =
    (* the lowest block start at or above [off] *)
    List.filter (fun s -> s >= off) t.order |> function [] -> None | l -> Some (List.fold_left min max_int l)
  in
  match b.terminator with
  | Jump target -> if ok target then [ target ] else []
  | Branch { taken; fallthrough } ->
      List.filter ok [ taken; fallthrough ] |> List.sort_uniq compare
  | Call { target; return_to } ->
      List.filter ok [ target; return_to ] |> List.sort_uniq compare
  | Fallthrough -> (
      let last = List.nth b.insns (List.length b.insns - 1) in
      match next_block_after (last.Decode.off + last.Decode.len) with
      | Some o when ok o -> [ o ]
      | Some _ | None -> [])
  | Return | Halt | Out_of_region -> []

let back_edges t =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun succ -> if succ <= b.start then Some (b.start, succ) else None)
        (successors t b))
    (blocks t)

let pp ppf t =
  List.iteri
    (fun i b ->
      if i > 0 then Format.fprintf ppf "@\n";
      let succ = successors t b in
      Format.fprintf ppf "block %04x (%d insns) -> [%s]" b.start
        (List.length b.insns)
        (String.concat ";" (List.map (Printf.sprintf "%04x") succ)))
    (blocks t)
