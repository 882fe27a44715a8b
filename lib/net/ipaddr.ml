(* An address is an immediate [int] in [0, 2^32): decoding one boxes
   nothing, and comparing two is integer comparison, which is unsigned
   because the value is never negative. *)
type t = int

let of_int v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg "Ipaddr.of_int: out of [0, 2^32)";
  v

let to_int v = v
let of_int32 v = Int32.to_int v land 0xFFFFFFFF
let to_int32 v = Int32.of_int v

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipaddr.of_octets" in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let octet v i = (v lsr (8 * (3 - i))) land 0xFF

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

let compare = Int.compare
let equal = Int.equal

(* The value [Hashtbl.hash] gives the boxed [int32] form, so that
   [Parallel]'s shards do not move: the runtime hashes an [int32] by
   one MurmurHash3 mix of its 32 bits from seed 0, then the final mix,
   kept to 30 bits.  ([Hashtbl.hash] of the [int] mixes its tagged
   representation instead, a different value.)  Products keep their
   low 32 bits, all that is read of them. *)
let rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land 0xFFFFFFFF

let hash v =
  let d = (v * 0xcc9e2d51) land 0xFFFFFFFF in
  let d = (rotl32 d 15 * 0x1b873593) land 0xFFFFFFFF in
  let h = ((rotl32 d 13 * 5) + 0xe6546b64) land 0xFFFFFFFF in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xFFFFFFFF in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xFFFFFFFF in
  (h lxor (h lsr 16)) land 0x3FFFFFFF

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

type prefix = { base : int; len : int }

let mask_of_len len = if len = 0 then 0 else (0xFFFFFFFF lsl (32 - len)) land 0xFFFFFFFF

let prefix addr len =
  if len < 0 || len > 32 then invalid_arg "Ipaddr.prefix: bad length";
  { base = addr land mask_of_len len; len }

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

let mem addr p = addr land mask_of_len p.len = p.base

let prefix_size p =
  if p.len = 0 then max_int
  else
    let bits = 32 - p.len in
    if bits >= 62 then max_int else 1 lsl bits

(* wraps past 255.255.255.255 as the 32-bit sum does; only the /0
   prefix, whose size is capped at [max_int], can get there *)
let nth p i =
  if i < 0 || i >= prefix_size p then invalid_arg "Ipaddr.nth: out of range";
  (p.base + i) land 0xFFFFFFFF

let prefix_to_string p = Printf.sprintf "%s/%d" (to_string p.base) p.len
let pp ppf v = Format.pp_print_string ppf (to_string v)
