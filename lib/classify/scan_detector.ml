type source_state = { touched : unit Ipaddr.Tbl.t; mutable flagged : bool }

type t = {
  unused : Ipaddr.prefix list;
  threshold : int;
  sources : source_state Ipaddr.Tbl.t;
}

let create ?(threshold = 5) unused =
  if threshold < 1 then invalid_arg "Scan_detector.create: threshold must be >= 1";
  { unused; threshold; sources = Ipaddr.Tbl.create 256 }

(* a top-level loop rather than [List.exists (Ipaddr.mem a)], whose
   partial application is a closure per packet *)
let rec mem_any a = function [] -> false | p :: ps -> Ipaddr.mem a p || mem_any a ps

let in_unused t a = mem_any a t.unused

let state_of t src =
  match Ipaddr.Tbl.find_opt t.sources src with
  | Some st -> st
  | None ->
      let st = { touched = Ipaddr.Tbl.create 8; flagged = false } in
      Ipaddr.Tbl.add t.sources src st;
      st

let observe t ~src ~dst =
  if in_unused t dst then begin
    let st = state_of t src in
    Ipaddr.Tbl.replace st.touched dst ();
    if Ipaddr.Tbl.length st.touched >= t.threshold then st.flagged <- true;
    st.flagged
  end
  else
    match Ipaddr.Tbl.find_opt t.sources src with
    | Some st -> st.flagged
    | None -> false

let is_scanner t src =
  match Ipaddr.Tbl.find_opt t.sources src with Some st -> st.flagged | None -> false

let count t src =
  match Ipaddr.Tbl.find_opt t.sources src with
  | Some st -> Ipaddr.Tbl.length st.touched
  | None -> 0

let scanner_count t =
  Ipaddr.Tbl.fold (fun _ st acc -> if st.flagged then acc + 1 else acc) t.sources 0
