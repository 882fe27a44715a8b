type run = { off : int; count : int; decoded : string }

let hex_digit c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let decode_u_escape s i =
  if i + 6 > Slice.length s then None
  else
    let c k = Slice.unsafe_get s (i + k) in
    if not (c 0 = '%' && (c 1 = 'u' || c 1 = 'U')) then None
    else
      match (hex_digit (c 2), hex_digit (c 3), hex_digit (c 4), hex_digit (c 5)) with
      | Some a, Some b, Some c, Some d ->
          Some ((a lsl 12) lor (b lsl 8) lor (c lsl 4) lor d, i + 6)
      | _, _, _, _ -> None

let unicode_runs ?(min_run = 4) ?(max_decoded = max_int) s =
  let n = Slice.length s in
  let runs = ref [] in
  let i = ref 0 in
  while !i < n do
    (* only a '%' can open an escape; testing it first keeps the
       allocating [decode_u_escape] off every other byte *)
    match if Slice.unsafe_get s !i = '%' then decode_u_escape s !i else None with
    | None -> incr i
    | Some (v0, next0) ->
        let buf = Buffer.create 32 in
        let add v =
          (* a %u bomb must not materialize: decode output is capped and
             the rest of the run is only *scanned* to find its end *)
          if Buffer.length buf < max_decoded then begin
            Buffer.add_char buf (Char.chr (v land 0xFF));
            Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF))
          end
        in
        add v0;
        let start = !i in
        let count = ref 1 in
        let j = ref next0 in
        let continue = ref true in
        while !continue do
          match decode_u_escape s !j with
          | Some (v, next) ->
              add v;
              incr count;
              j := next
          | None -> continue := false
        done;
        if !count >= min_run then
          runs := { off = start; count = !count; decoded = Buffer.contents buf } :: !runs;
        i := !j
  done;
  List.rev !runs

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
    | '+' ->
        Buffer.add_char buf ' ';
        incr i
    | '%' when !i + 2 < n -> (
        match (hex_digit s.[!i + 1], hex_digit s.[!i + 2]) with
        | Some a, Some b ->
            Buffer.add_char buf (Char.chr ((a lsl 4) lor b));
            i := !i + 3
        | _, _ ->
            Buffer.add_char buf '%';
            incr i)
    | c ->
        Buffer.add_char buf c;
        incr i);
  done;
  Buffer.contents buf
