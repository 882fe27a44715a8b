type t = int32

let of_int32 v = v
let to_int32 v = v

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipaddr.of_octets" in
  check a;
  check b;
  check c;
  check d;
  Int32.logor
    (Int32.shift_left (Int32.of_int a) 24)
    (Int32.of_int ((b lsl 16) lor (c lsl 8) lor d))

let octet v i = Int32.to_int (Int32.logand (Int32.shift_right_logical v (8 * (3 - i))) 0xFFl)

let to_string v =
  Printf.sprintf "%d.%d.%d.%d" (octet v 0) (octet v 1) (octet v 2) (octet v 3)

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a <= 255 && b >= 0 && b <= 255 && c >= 0 && c <= 255 && d >= 0 && d <= 255
        ->
          Some (of_octets a b c d)
      | _, _, _, _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Ipaddr.of_string: %S" s)

let compare = Int32.unsigned_compare
let equal = Int32.equal
let hash v = Hashtbl.hash v

type prefix = { base : int32; len : int }

let mask_of_len len =
  if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg "Ipaddr.prefix: bad length";
  { base = Int32.logand addr (mask_of_len len); len }

let prefix_of_string_opt s =
  match String.index_opt s '/' with
  | None -> None
  | Some i -> (
      match
        ( of_string_opt (String.sub s 0 i),
          int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) )
      with
      | Some addr, Some len when len >= 0 && len <= 32 -> Some (prefix addr len)
      | _, _ -> None)

let prefix_of_string s =
  match prefix_of_string_opt s with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Ipaddr.prefix_of_string: %S (want a.b.c.d/len)" s)

let mem addr p = Int32.equal (Int32.logand addr (mask_of_len p.len)) p.base

let prefix_size p =
  if p.len = 0 then max_int
  else
    let bits = 32 - p.len in
    if bits >= 62 then max_int else 1 lsl bits

let nth p i =
  if i < 0 || i >= prefix_size p then invalid_arg "Ipaddr.nth: out of range";
  Int32.add p.base (Int32.of_int i)

let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.base) p.len
let pp ppf v = Format.pp_print_string ppf (to_string v)
