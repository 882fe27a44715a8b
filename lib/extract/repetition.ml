type run = { off : int; byte : char; len : int }

(* All scanners take an optional window bound: repetition structure past
   [max_scan] bytes cannot start a frame anyway (the extractor caps frame
   sizes), so scanning a reassembled megabyte-scale stream end to end is
   pure attack surface. *)
let runs ?(min_len = 32) ?(max_scan = max_int) s =
  let n = min (Slice.length s) max_scan in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    let b = Slice.unsafe_get s !i in
    let j = ref (!i + 1) in
    while !j < n && Slice.unsafe_get s !j = b do
      incr j
    done;
    let len = !j - !i in
    if len >= min_len then out := { off = !i; byte = b; len } :: !out;
    i := !j
  done;
  List.rev !out

(* Single-byte instructions with no meaningful effect on shellcode entry:
   the classic polymorphic NOP pool. *)
let nop_like c =
  match Char.code c with
  | 0x90 (* nop *) -> true
  | b when b >= 0x40 && b <= 0x4F -> true (* inc/dec reg *)
  | b when b >= 0x50 && b <= 0x57 -> true (* push reg *)
  | b when b >= 0x91 && b <= 0x97 -> true (* xchg eax, reg *)
  | 0x98 (* cwde *) | 0x99 (* cdq *) | 0xF8 (* clc *) | 0xF9 (* stc *)
  | 0xFC (* cld *) | 0xF5 (* cmc *) | 0x9B (* wait *) | 0x9E (* sahf *)
  | 0x9F (* lahf *) ->
      true
  | _ -> false

let default_sled_len = 16

let sled_like ?(min_len = default_sled_len) ?(max_scan = max_int) s =
  let n = min (Slice.length s) max_scan in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if nop_like (Slice.unsafe_get s !i) then begin
      let j = ref (!i + 1) in
      while !j < n && nop_like (Slice.unsafe_get s !j) do
        incr j
      done;
      let len = !j - !i in
      if len >= min_len then
        out := { off = !i; byte = Slice.unsafe_get s !i; len } :: !out;
      i := !j
    end
    else incr i
  done;
  List.rev !out

type ret_run = { off : int; base : int32; count : int }

let dword_at s i =
  let b k = Int32.of_int (Char.code (Slice.unsafe_get s (i + k))) in
  Int32.logor (b 0)
    (Int32.logor
       (Int32.shift_left (b 1) 8)
       (Int32.logor (Int32.shift_left (b 2) 16) (Int32.shift_left (b 3) 24)))

let upper24 v = Int32.logand v 0xFFFFFF00l

(* A plausible code address has heterogeneous upper bytes; a text run
   ("aaaa...") repeats one byte and must not look like a return region. *)
let address_like base =
  let b k = Int32.to_int (Int32.shift_right_logical base (8 * k)) land 0xFF in
  not (b 1 = b 2 && b 2 = b 3)

let default_ret_count = 4

let ret_address_runs ?(min_count = default_ret_count) ?(max_scan = max_int) s =
  let n = min (Slice.length s) max_scan in
  let out = ref [] in
  let i = ref 0 in
  while !i + 4 <= n do
    let base = upper24 (dword_at s !i) in
    if Int32.equal base 0l || not (address_like base) then incr i
    else begin
      let j = ref (!i + 4) in
      while !j + 4 <= n && Int32.equal (upper24 (dword_at s !j)) base do
        j := !j + 4
      done;
      let count = (!j - !i) / 4 in
      if count >= min_count then begin
        out := { off = !i; base; count } :: !out;
        i := !j
      end
      else incr i
    end
  done;
  List.rev !out
