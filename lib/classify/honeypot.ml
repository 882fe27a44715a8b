type t = {
  decoys : unit Ipaddr.Tbl.t;
  marked : unit Ipaddr.Tbl.t;
}

let create addrs =
  let decoys = Ipaddr.Tbl.create 16 in
  List.iter (fun a -> Ipaddr.Tbl.replace decoys a ()) addrs;
  { decoys; marked = Ipaddr.Tbl.create 64 }

let add t a = Ipaddr.Tbl.replace t.decoys a ()
let is_honeypot t a = Ipaddr.Tbl.mem t.decoys a
let is_marked t a = Ipaddr.Tbl.mem t.marked a

(* the length tests skip hashing when no decoy is declared, or none
   has been touched yet: the common case *)
let observe t ~src ~dst =
  if Ipaddr.Tbl.length t.decoys > 0 && Ipaddr.Tbl.mem t.decoys dst then
    Ipaddr.Tbl.replace t.marked src ();
  Ipaddr.Tbl.length t.marked > 0 && Ipaddr.Tbl.mem t.marked src

let marked_count t = Ipaddr.Tbl.length t.marked
