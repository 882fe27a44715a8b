exception Truncated of string

module Reader = struct
  type t = { src : string; base : int; len : int; mutable cur : int }

  let of_string ?(pos = 0) ?len src =
    let len = match len with Some l -> l | None -> String.length src - pos in
    if pos < 0 || len < 0 || pos + len > String.length src then
      invalid_arg "Reader.of_string: view out of bounds";
    { src; base = pos; len; cur = 0 }

  let pos t = t.cur
  let is_empty t = t.cur = t.len

  let seek t p =
    if p < 0 || p > t.len then invalid_arg "Reader.seek: out of bounds";
    t.cur <- p

  let u8 t =
    if t.cur >= t.len then raise (Truncated "u8");
    let v = Char.code t.src.[t.base + t.cur] in
    t.cur <- t.cur + 1;
    v

  let u32_le_int t =
    let a = u8 t in
    let b = u8 t in
    let c = u8 t in
    let d = u8 t in
    (d lsl 24) lor (c lsl 16) lor (b lsl 8) lor a

  let u32_le t = Int32.of_int (u32_le_int t)
end

module Writer = struct
  type t = Buffer.t

  let create ?(capacity = 256) () = Buffer.create capacity
  let length = Buffer.length
  let u8 t v = Buffer.add_char t (Char.chr (v land 0xFF))

  let u16_be t v =
    u8 t (v lsr 8);
    u8 t v

  let u16_le t v =
    u8 t v;
    u8 t (v lsr 8)

  let u32_be_int t v =
    u16_be t ((v lsr 16) land 0xFFFF);
    u16_be t (v land 0xFFFF)

  let u32_le_int t v =
    u16_le t (v land 0xFFFF);
    u16_le t ((v lsr 16) land 0xFFFF)

  let u32_be t v = u32_be_int t (Int32.to_int v land 0xFFFFFFFF)
  let u32_le t v = u32_le_int t (Int32.to_int v land 0xFFFFFFFF)
  let string = Buffer.add_string

  let slice t s = Buffer.add_substring t (Slice.base s) (Slice.offset s) (Slice.length s)

  let fill t byte n =
    for _ = 1 to n do
      u8 t byte
    done

  let contents = Buffer.contents

  let patch_u16_be t off v =
    if off < 0 || off + 2 > Buffer.length t then
      invalid_arg "Writer.patch_u16_be: out of bounds";
    let s = Buffer.to_bytes t in
    Bytes.set s off (Char.chr ((v lsr 8) land 0xFF));
    Bytes.set s (off + 1) (Char.chr (v land 0xFF));
    Buffer.clear t;
    Buffer.add_bytes t s
end
