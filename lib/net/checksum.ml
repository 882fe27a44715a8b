(* The dev profile compiles with [-opaque], so a helper from another
   module is a call on every use: the word read and the byte swap are
   primitives declared here. *)
external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* One running sum into a 63-bit accumulator, the end-around carry
   folded once at the end.  Eight bytes at a time: a big-endian 64-bit
   word's two 32-bit halves are each two 16-bit words [hi lsl 16 + lo],
   and [2^16 = 1] modulo [0xFFFF], so adding the halves adds the words
   (at most 2^33 per step, 2^46 over a 64 KiB datagram).  Then 16-bit
   words, then the odd byte zero-padded.  A window is summed as if it
   started at an even offset of the datagram, which holds for every
   caller (headers, and a pseudo-header of 12 bytes). *)
let ones_complement_sub acc base ~off ~len =
  if off < 0 || len < 0 || off + len > String.length base then
    invalid_arg "Checksum.ones_complement_sub";
  let hi = off + len in
  let acc = ref acc in
  let i = ref off in
  while !i + 8 <= hi do
    let w = get64u base !i in
    let w = if big_endian () then w else bswap64 w in
    acc :=
      !acc
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFFFFFF);
    i := !i + 8
  done;
  while !i + 1 < hi do
    acc :=
      !acc
      + (Char.code (String.unsafe_get base !i) lsl 8)
      + Char.code (String.unsafe_get base (!i + 1));
    i := !i + 2
  done;
  if !i < hi then acc := !acc + (Char.code (String.unsafe_get base !i) lsl 8);
  while !acc land lnot 0xFFFF <> 0 do
    acc := (!acc land 0xFFFF) + (!acc lsr 16)
  done;
  lnot !acc land 0xFFFF

let ones_complement acc s =
  ones_complement_sub acc (Slice.base s) ~off:(Slice.offset s) ~len:(Slice.length s)

(* The pseudo-header's words: both halves of each address, the
   protocol (its high byte is the zero pad) and the length. *)
let pseudo_header ~src ~dst ~proto ~len =
  (src lsr 16) + (src land 0xFFFF) + (dst lsr 16) + (dst land 0xFFFF) + proto + len
