type node = {
  next : int array;  (* goto function over 256 bytes; -1 = undefined *)
  mutable fail : int;
  mutable outputs : string list;
}

type t = { nodes : node array }

let new_node () = { next = Array.make 256 (-1); fail = 0; outputs = [] }

let build patterns =
  let nodes = ref [| new_node () |] in
  let size = ref 1 in
  let node i = !nodes.(i) in
  let add_node () =
    if !size >= Array.length !nodes then begin
      let bigger = Array.make (2 * Array.length !nodes) (new_node ()) in
      Array.blit !nodes 0 bigger 0 !size;
      for k = !size to Array.length bigger - 1 do
        bigger.(k) <- new_node ()
      done;
      nodes := bigger
    end
    else !nodes.(!size) <- new_node ();
    incr size;
    !size - 1
  in
  (* trie construction *)
  List.iter
    (fun (pat, tag) ->
      if pat = "" then invalid_arg "Aho_corasick.build: empty pattern";
      let cur = ref 0 in
      String.iter
        (fun c ->
          let b = Char.code c in
          let nxt = (node !cur).next.(b) in
          if nxt >= 0 then cur := nxt
          else begin
            let fresh = add_node () in
            (node !cur).next.(b) <- fresh;
            cur := fresh
          end)
        pat;
      (node !cur).outputs <- tag :: (node !cur).outputs)
    patterns;
  (* breadth-first failure links *)
  let q = Queue.create () in
  for b = 0 to 255 do
    let nxt = (node 0).next.(b) in
    if nxt < 0 then (node 0).next.(b) <- 0
    else begin
      (node nxt).fail <- 0;
      Queue.add nxt q
    end
  done;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    for b = 0 to 255 do
      let v = (node u).next.(b) in
      if v >= 0 then begin
        let f = (node (node u).fail).next.(b) in
        (node v).fail <- f;
        (node v).outputs <- (node v).outputs @ (node f).outputs;
        Queue.add v q
      end
      else (node u).next.(b) <- (node (node u).fail).next.(b)
    done
  done;
  { nodes = Array.sub !nodes 0 !size }

let search t hay =
  let state = ref 0 in
  let out = ref [] in
  String.iteri
    (fun i c ->
      state := t.nodes.(!state).next.(Char.code c);
      List.iter (fun tag -> out := (i, tag) :: !out) t.nodes.(!state).outputs)
    hay;
  List.rev !out

let first_match t hay =
  let n = String.length hay in
  let rec go state i =
    if i >= n then None
    else
      let state = t.nodes.(state).next.(Char.code hay.[i]) in
      match t.nodes.(state).outputs with
      | tag :: _ -> Some tag
      | [] -> go state (i + 1)
  in
  go 0 0

let matches t hay = first_match t hay <> None

(* Slice variants walk the view in place — scanning an extracted frame
   or a reassembled window allocates nothing. *)
let search_slice t hay =
  let n = Slice.length hay in
  let state = ref 0 in
  let out = ref [] in
  for i = 0 to n - 1 do
    state := t.nodes.(!state).next.(Char.code (Slice.unsafe_get hay i));
    List.iter (fun tag -> out := (i, tag) :: !out) t.nodes.(!state).outputs
  done;
  List.rev !out
