type step = {
  off : int;
  len : int;
  insn : Insn.t;
  sems : Sem.t array;
}

type t = step array

(* The walker is shared by the direct and the memoized builders; [decode]
   abstracts where (insn, len, sems) comes from, and [scratch] supplies
   the walk-stamped visited set (no per-trace table).  When a [budget] is
   supplied, each step takes one instruction of fuel first: a jmp-chain
   maze can spend at most the packet's fuel across every trace built for
   it, no matter how many entries are enumerated. *)
let walk ?budget ~max_len ~scratch ~decode ~entry () =
  let n = String.length (Icache.code scratch) in
  let granted () =
    match budget with None -> true | Some b -> Budget.take_insns b 1
  in
  if entry < 0 || entry >= n then [||]
  else begin
    Icache.start_walk scratch;
    let acc = ref [] in
    let count = ref 0 in
    let off = ref entry in
    let continue = ref true in
    while !continue && !count < max_len && !off >= 0 && !off < n
          && not (Icache.visited scratch !off) && granted () do
      match decode !off with
      | None -> continue := false
      | Some (e : Icache.entry) ->
          (* an undecodable offset ends the walk, so only decoded steps
             need marking *)
          Icache.visit scratch !off !count;
          let insn = e.Icache.insn in
          let sems = e.Icache.sems in
          acc := { off = !off; len = e.Icache.len; insn; sems } :: !acc;
          incr count;
          let next = !off + e.Icache.len in
          (match insn with
          | Insn.Jmp_rel disp -> off := next + disp
          | Insn.Call_rel disp -> off := next + disp
          | Insn.Ret | Insn.Int3 | Insn.Bad _ -> continue := false
          | Insn.Jcc_rel _ | Insn.Loop _ | Insn.Loope _ | Insn.Loopne _
          | Insn.Jecxz _ ->
              off := next
          | Insn.Mov _ | Insn.Arith _ | Insn.Test _ | Insn.Not _ | Insn.Neg _
          | Insn.Inc _ | Insn.Dec _ | Insn.Shift _ | Insn.Lea _ | Insn.Xchg _
          | Insn.Push_reg _ | Insn.Pop_reg _ | Insn.Push_imm _ | Insn.Pushad
          | Insn.Popad | Insn.Pushfd | Insn.Popfd | Insn.Int _ | Insn.Nop
          | Insn.Cld | Insn.Std | Insn.Lodsb | Insn.Lodsd | Insn.Stosb
          | Insn.Stosd | Insn.Movsb | Insn.Movsd | Insn.Scasb | Insn.Cmpsb
          | Insn.Cdq | Insn.Cwde | Insn.Clc | Insn.Stc | Insn.Cmc | Insn.Sahf
          | Insn.Lahf | Insn.Fwait | Insn.Rep_movsb | Insn.Rep_movsd
          | Insn.Rep_stosb | Insn.Rep_stosd | Insn.Movzx _ | Insn.Movsx _
          | Insn.Mul _ | Insn.Imul _ | Insn.Div _ | Insn.Idiv _ | Insn.Imul2 _
          | Insn.Imul3 _ ->
              off := next)
    done;
    Array.of_list (List.rev !acc)
  end

let build ?budget ?(max_len = 1024) code ~entry =
  let decode off =
    match Decode.at code off with
    | None -> None
    | Some d ->
        Some
          {
            Icache.insn = d.Decode.insn;
            len = d.Decode.len;
            sems = Array.of_list (Sem.lift d.Decode.insn);
          }
  in
  walk ?budget ~max_len ~scratch:(Icache.create code) ~decode ~entry ()

let build_cached ?budget ?(max_len = 1024) cache ~entry =
  walk ?budget ~max_len ~scratch:cache ~decode:(Icache.decode cache) ~entry ()

let entry_points ?(limit = 256) code =
  let n = String.length code in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let add o =
    if o >= 0 && o < n && not (Hashtbl.mem seen o) then begin
      Hashtbl.add seen o ();
      out := o :: !out
    end
  in
  (* the region start, and nearby offsets to recover from byte-level
     desynchronization *)
  for o = 0 to min 16 (n - 1) do
    add o
  done;
  (* linear sweep: branch targets and post-boundary restarts *)
  let ds = Decode.all code in
  Array.iter
    (fun (d : Decode.decoded) ->
      (match Insn.branch_displacement d.Decode.insn with
      | Some disp -> add (d.Decode.off + d.Decode.len + disp)
      | None -> ());
      match d.Decode.insn with
      | Insn.Ret | Insn.Int3 | Insn.Bad _ -> add (d.Decode.off + d.Decode.len)
      | _ -> ())
    ds;
  let all = List.rev !out in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | x :: tl -> x :: take (k - 1) tl
  in
  take limit all

let pp ppf (t : t) =
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "@\n";
      Format.fprintf ppf "%04x: %a" s.off Pretty.pp s.insn)
    t
