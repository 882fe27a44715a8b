(* One running sum: 16-bit big-endian words added into a 63-bit
   accumulator, the end-around carry folded once at the end.  A window
   is summed as if it started at an even offset of the datagram, which
   holds for every caller (headers, and a pseudo-header of 12 bytes). *)
let ones_complement acc s =
  let base = Slice.base s in
  let hi = Slice.offset s + Slice.length s in
  let acc = ref acc in
  let i = ref (Slice.offset s) in
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

(* The pseudo-header's words: both halves of each address, the
   protocol (its high byte is the zero pad) and the length. *)
let pseudo_header ~src ~dst ~proto ~len =
  let a = Int32.to_int (Ipaddr.to_int32 src) land 0xFFFFFFFF in
  let b = Int32.to_int (Ipaddr.to_int32 dst) land 0xFFFFFFFF in
  (a lsr 16) + (a land 0xFFFF) + (b lsr 16) + (b land 0xFFFF) + proto + len
