type step = Icache.entry = {
  off : int;
  len : int;
  insn : Insn.t;
  sems : Sem.t array;
  kinds : int;
}

type t = step array

(* The reference walk: every step decoded afresh through [Decode.at] and
   kept, its own visited set, and the same successor rule and check
   order as [Icache.walk] (fuel taken last).  When a [budget] is
   supplied, each step takes one instruction of fuel: a jmp-chain maze
   can spend at most the packet's fuel across every trace built for it,
   no matter how many entries are enumerated. *)
let build ?budget ?(max_len = 1024) code ~entry =
  let n = String.length code in
  let seen = Bytes.make n '\000' in
  let acc = ref [] and len = ref 0 and off = ref entry in
  while
    !len < max_len && !off >= 0 && !off < n
    && Bytes.get seen !off = '\000'
    && match budget with None -> true | Some b -> Budget.take_insns b 1
  do
    match Decode.at code !off with
    | Some d ->
        let st = Icache.make_entry ~off:!off ~len:d.Decode.len d.Decode.insn in
        Bytes.set seen !off '\001';
        acc := st :: !acc;
        incr len;
        off := Icache.successor st.insn ~next:(!off + st.len)
    | None -> invalid_arg "Trace.build: the walk decodes only in range"
  done;
  Array.of_list (List.rev !acc)

let walk ?budget ?(max_len = 1024) cache ~entry = Icache.walk ?budget ~max_len cache ~entry

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
      let next = d.Decode.off + d.Decode.len in
      match Insn.flow d.Decode.insn with
      | Insn.Jump disp | Insn.Branch disp | Insn.Call disp -> add (next + disp)
      | Insn.Return | Insn.Halt -> add next
      | Insn.Next -> ())
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
