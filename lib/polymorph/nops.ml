(* Byte pool: single-byte instructions with no effect that matters ahead
   of shellcode entry.  A strict subset of Repetition.nop_like in the
   extractor (tested).  Instructions that would wreck the stack pointer
   the decoder's GetPC harness depends on (xchg esp,eax) are excluded,
   as real engines do. *)
let pool_bytes =
  let b = Buffer.create 64 in
  Buffer.add_char b '\x90';
  for r = 0x40 to 0x4F do
    Buffer.add_char b (Char.chr r)
  done;
  for r = 0x50 to 0x57 do
    Buffer.add_char b (Char.chr r)
  done;
  for r = 0x91 to 0x97 do
    if r <> 0x94 then Buffer.add_char b (Char.chr r)
  done;
  List.iter (Buffer.add_char b) [ '\x98'; '\x99'; '\xf8'; '\xf9'; '\xfc'; '\xf5' ];
  Buffer.contents b

let sled_bytes rng n =
  String.init n (fun _ -> pool_bytes.[Rng.int rng (String.length pool_bytes)])

let is_nop_like_byte c = String.contains pool_bytes c
