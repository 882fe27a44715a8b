type source_state = { touched : (Ipaddr.t, unit) Hashtbl.t; mutable flagged : bool }

type t = {
  unused : Ipaddr.prefix list;
  threshold : int;
  sources : (Ipaddr.t, source_state) Hashtbl.t;
}

let create ?(threshold = 5) unused =
  if threshold < 1 then invalid_arg "Scan_detector.create: threshold must be >= 1";
  { unused; threshold; sources = Hashtbl.create 256 }

let in_unused t a = List.exists (Ipaddr.mem a) t.unused

let state_of t src =
  match Hashtbl.find_opt t.sources src with
  | Some st -> st
  | None ->
      let st = { touched = Hashtbl.create 8; flagged = false } in
      Hashtbl.add t.sources src st;
      st

let observe t ~src ~dst =
  if in_unused t dst then begin
    let st = state_of t src in
    Hashtbl.replace st.touched dst ();
    if Hashtbl.length st.touched >= t.threshold then st.flagged <- true;
    st.flagged
  end
  else
    match Hashtbl.find_opt t.sources src with
    | Some st -> st.flagged
    | None -> false

let is_scanner t src =
  match Hashtbl.find_opt t.sources src with Some st -> st.flagged | None -> false

let count t src =
  match Hashtbl.find_opt t.sources src with
  | Some st -> Hashtbl.length st.touched
  | None -> 0

let scanner_count t =
  Hashtbl.fold (fun _ st acc -> if st.flagged then acc + 1 else acc) t.sources 0
