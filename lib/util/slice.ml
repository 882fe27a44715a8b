type t = { base : string; off : int; len : int }

let of_string s = { base = s; off = 0; len = String.length s }

let empty = { base = ""; off = 0; len = 0 }
let base t = t.base
let offset t = t.off
let length t = t.len
let is_empty t = t.len = 0

let check t i what =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Slice.%s: index %d out of [0,%d)" what i t.len)

let unsafe_get t i = String.unsafe_get t.base (t.off + i)

let get t i =
  check t i "get";
  unsafe_get t i

let get_u8 t i =
  check t i "get_u8";
  Char.code (unsafe_get t i)

let need t i n what =
  if i < 0 || i + n > t.len then
    invalid_arg (Printf.sprintf "Slice.%s: %d bytes at %d exceed length %d" what n i t.len)

let get_u16_be t i =
  need t i 2 "get_u16_be";
  (Char.code (unsafe_get t i) lsl 8) lor Char.code (unsafe_get t (i + 1))

let get_u32_be_int t i =
  need t i 4 "get_u32_be_int";
  (Char.code (unsafe_get t i) lsl 24)
  lor (Char.code (unsafe_get t (i + 1)) lsl 16)
  lor (Char.code (unsafe_get t (i + 2)) lsl 8)
  lor Char.code (unsafe_get t (i + 3))

let get_u32_le_int t i =
  need t i 4 "get_u32_le_int";
  (Char.code (unsafe_get t (i + 3)) lsl 24)
  lor (Char.code (unsafe_get t (i + 2)) lsl 16)
  lor (Char.code (unsafe_get t (i + 1)) lsl 8)
  lor Char.code (unsafe_get t i)

let sub t ~off ~len =
  if off < 0 || len < 0 || off + len > t.len then
    invalid_arg "Slice.sub: view out of bounds";
  { base = t.base; off = t.off + off; len }

let of_sub s ~off ~len =
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Slice.of_sub: view out of bounds";
  { base = s; off; len }

let to_string t =
  (* THE materialization point: a whole-string view returns its backing
     string unchanged, so round-tripping string -> slice -> string is
     free; anything narrower copies exactly once, here *)
  if t.off = 0 && t.len = String.length t.base then t.base
  else String.sub t.base t.off t.len

let equal_string t s =
  t.len = String.length s
  &&
  let rec go i = i >= t.len || (unsafe_get t i = String.unsafe_get s i && go (i + 1)) in
  go 0

let equal a b =
  a.len = b.len
  &&
  let rec go i = i >= a.len || (unsafe_get a i = unsafe_get b i && go (i + 1)) in
  go 0
