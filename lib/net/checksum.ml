(* Sum 16-bit big-endian words with end-around carry, over an absolute
   window of [base] — the shared core for strings and slices. *)
let sum_window acc base lo hi =
  let acc = ref acc in
  let i = ref lo in
  while !i + 1 < hi do
    acc :=
      !acc
      + (Char.code (String.unsafe_get base !i) lsl 8)
      + Char.code (String.unsafe_get base (!i + 1));
    i := !i + 2
  done;
  if !i < hi then acc := !acc + (Char.code (String.unsafe_get base !i) lsl 8);
  !acc

let sum_into acc s = sum_window acc s 0 (String.length s)

let sum_into_slice acc s =
  let off = Slice.offset s in
  sum_window acc (Slice.base s) off (off + Slice.length s)

let fold acc =
  let acc = ref acc in
  while !acc land lnot 0xFFFF <> 0 do
    acc := (!acc land 0xFFFF) + (!acc lsr 16)
  done;
  !acc

let ones_complement s = lnot (fold (sum_into 0 s)) land 0xFFFF

let ones_complement_list parts =
  (* parts must each have even length except possibly the last; the packet
     encoders below guarantee this by padding the pseudo-header side *)
  let acc = List.fold_left sum_into 0 parts in
  lnot (fold acc) land 0xFFFF

let ones_complement_slices parts =
  let acc = List.fold_left sum_into_slice 0 parts in
  lnot (fold acc) land 0xFFFF

let valid_slice s = lnot (fold (sum_into_slice 0 s)) land 0xFFFF = 0
