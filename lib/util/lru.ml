type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable prev : ('k, 'v) node option;
  mutable next : ('k, 'v) node option;
}

type ('k, 'v) t = {
  cap : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable head : ('k, 'v) node option;  (* most recently used *)
  mutable tail : ('k, 'v) node option;  (* least recently used *)
  mutable evictions : int;
}

let create cap =
  if cap <= 0 then invalid_arg "Lru.create: capacity must be positive";
  {
    cap;
    tbl = Hashtbl.create (min cap 64);
    head = None;
    tail = None;
    evictions = 0;
  }

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | None -> None
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
      n.value <- v;
      unlink t n;
      push_front t n
  | None ->
      let n = { key = k; value = v; prev = None; next = None } in
      Hashtbl.replace t.tbl k n;
      push_front t n;
      if Hashtbl.length t.tbl > t.cap then
        match t.tail with
        | Some last ->
            unlink t last;
            Hashtbl.remove t.tbl last.key;
            t.evictions <- t.evictions + 1
        | None -> ()

let mem t k = Hashtbl.mem t.tbl k
let length t = Hashtbl.length t.tbl
let evictions t = t.evictions

let clear t =
  Hashtbl.reset t.tbl;
  t.head <- None;
  t.tail <- None
