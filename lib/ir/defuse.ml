type def_site = Entry | At of int

(* Registers an instruction reads, at operand level (the lifted IR drops
   compare operands, which def-use needs).  ESP is excluded throughout:
   stack-pointer discipline would otherwise chain every push/pop together
   and drown the analysis. *)
let operand_reads ((access : Insn.access), (o : Insn.operand)) =
  (* a memory operand reads its address; a byte write merges into the
     old register value *)
  match (access, o) with Insn.Write, Insn.Reg _ -> [] | _ -> Insn.operand_regs o

(* what the operand list leaves out *)
let implicit_reads (i : Insn.t) =
  match i with
  | Insn.Pushad -> Array.to_list Reg.all
  | Insn.Loop _ | Insn.Loope _ | Insn.Loopne _ | Insn.Jecxz _ -> [ Reg.ECX ]
  | Insn.Int _ -> (* syscall arguments *) [ Reg.EAX; Reg.EBX; Reg.ECX; Reg.EDX; Reg.ESI; Reg.EDI ]
  | Insn.Lodsb -> [ Reg.EAX; Reg.ESI ] (* AL merges into EAX *)
  | Insn.Lodsd -> [ Reg.ESI ]
  | Insn.Stosb | Insn.Stosd | Insn.Scasb -> [ Reg.EAX; Reg.EDI ]
  | Insn.Movsb | Insn.Movsd | Insn.Cmpsb -> [ Reg.ESI; Reg.EDI ]
  | Insn.Cdq | Insn.Cwde | Insn.Sahf | Insn.Lahf -> [ Reg.EAX ]
  | Insn.Rep_movsb | Insn.Rep_movsd -> [ Reg.ESI; Reg.EDI; Reg.ECX ]
  | Insn.Rep_stosb | Insn.Rep_stosd -> [ Reg.EAX; Reg.EDI; Reg.ECX ]
  | Insn.Mul _ | Insn.Imul _ -> [ Reg.EAX ]
  | Insn.Div (Insn.S8bit, _) | Insn.Idiv (Insn.S8bit, _) -> (* AX *) [ Reg.EAX ]
  | Insn.Div (Insn.S32bit, _) | Insn.Idiv (Insn.S32bit, _) -> [ Reg.EAX; Reg.EDX ]
  | _ -> []

let insn_reads (i : Insn.t) : Reg.t list =
  List.sort_uniq compare
    (List.filter
       (fun r -> not (Reg.equal r Reg.ESP))
       (implicit_reads i @ List.concat_map operand_reads (Insn.operands i)))

let insn_writes (i : Insn.t) : Reg.t list =
  List.sort_uniq compare
    (List.filter
       (fun r -> not (Reg.equal r Reg.ESP))
       (List.concat_map Sem.writes (Array.to_list (Sem.lift i))))

(* Effects that make an instruction unconditionally "used": memory writes,
   stack pushes and pops, control flow, syscalls. *)
let has_side_effect (i : Insn.t) =
  Insn.flow i <> Insn.Next
  || Array.exists
       (fun sem ->
         Sem.writes_memory sem
         || match sem with Sem.S_pop _ | Sem.S_syscall _ -> true | _ -> false)
       (Sem.lift i)

type t = {
  trace : Trace.t;
  reads_at : Reg.t list array;
  writes_at : Reg.t list array;
  side_effect : bool array;
}

let analyze (trace : Trace.t) =
  let n = Array.length trace in
  {
    trace;
    reads_at = Array.init n (fun k -> insn_reads trace.(k).Trace.insn);
    writes_at = Array.init n (fun k -> insn_writes trace.(k).Trace.insn);
    side_effect = Array.init n (fun k -> has_side_effect trace.(k).Trace.insn);
  }

let check_index t k =
  if k < 0 || k >= Array.length t.trace then invalid_arg "Defuse: index out of range"

let reads t k =
  check_index t k;
  List.map
    (fun r ->
      let rec back j =
        if j < 0 then Entry
        else if List.exists (Reg.equal r) t.writes_at.(j) then At j
        else back (j - 1)
      in
      (r, back (k - 1)))
    t.reads_at.(k)

(* Is the value [r] written at [k] consumed before being clobbered? *)
let write_used t k r =
  let n = Array.length t.trace in
  let rec forward j =
    if j >= n then false
    else if List.exists (Reg.equal r) t.reads_at.(j) then true
    else if List.exists (Reg.equal r) t.writes_at.(j) then false
    else forward (j + 1)
  in
  forward (k + 1)

let is_dead_write t k =
  check_index t k;
  (not t.side_effect.(k))
  && t.writes_at.(k) <> []
  && List.for_all (fun r -> not (write_used t k r)) t.writes_at.(k)

let dead_fraction t =
  let n = Array.length t.trace in
  if n = 0 then 0.0
  else begin
    let dead = ref 0 in
    for k = 0 to n - 1 do
      if is_dead_write t k then incr dead
    done;
    float_of_int !dead /. float_of_int n
  end

let uses_of t k =
  check_index t k;
  let n = Array.length t.trace in
  List.concat_map
    (fun r ->
      let rec forward j acc =
        if j >= n then List.rev acc
        else if List.exists (Reg.equal r) t.reads_at.(j) then
          (* reads-then-writes keeps scanning only if the reg survives *)
          if List.exists (Reg.equal r) t.writes_at.(j) then List.rev (j :: acc)
          else forward (j + 1) (j :: acc)
        else if List.exists (Reg.equal r) t.writes_at.(j) then List.rev acc
        else forward (j + 1) acc
      in
      forward (k + 1) [])
    t.writes_at.(k)
  |> List.sort_uniq compare
