(** Repeated-byte run detection — the overflow-filler locator ('X' runs in
    Code Red II, 0x90 sleds, 'A' padding). *)

type run = { off : int; byte : char; len : int }

val runs : ?min_len:int -> ?max_scan:int -> Slice.t -> run list
(** Maximal runs of one repeated byte with length at least [min_len]
    (default 32), left to right.  [max_scan] (default unlimited) bounds
    the scanned window: repetition past it is ignored, which keeps the
    scanners O(window) on adversarially long reassembled streams. *)

val nop_like : char -> bool
(** Membership in the single-byte NOP-equivalence class {!sled_like}
    runs are drawn from. *)

val default_sled_len : int
(** [16], {!sled_like}'s default [min_len]. *)

val sled_like : ?min_len:int -> ?max_scan:int -> Slice.t -> run list
(** Runs of bytes drawn from the single-byte NOP-equivalence class (nop,
    inc/dec/push/pop reg, cld, ...) of length at least [min_len]
    (default 16).  Unlike {!runs} the bytes may differ — this is what a
    polymorphic NOP region looks like. *)

type ret_run = { off : int; base : int32; count : int }
(** [count] consecutive little-endian dwords agreeing on their upper 24
    bits [base] (the LSB may vary). *)

val default_ret_count : int
(** [4], {!ret_address_runs}'s default [min_count]. *)

val ret_address_runs : ?min_count:int -> ?max_scan:int -> Slice.t -> ret_run list
(** The paper's §4.2 observation: a buffer-overflow's return-address
    region repeats one address in which {e only the least significant
    byte can be varied} (it must stay inside the sled).  Finds maximal
    runs of at least [min_count] (default 4) such dwords at any byte
    alignment, left to right, non-overlapping. *)
