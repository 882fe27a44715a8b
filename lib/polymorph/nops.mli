(** Polymorphic NOP generation.

    Classic sleds repeated 0x90; polymorphic generators draw from the
    large class of single-byte instructions that are harmless before
    shellcode entry (inc/dec/push reg, xchg with eax, flag twiddles, ...),
    defeating repeated-byte signatures. *)

val sled_bytes : Rng.t -> int -> string
(** [sled_bytes rng n] is [n] bytes, each a random single-byte NOP-like
    instruction. *)

val is_nop_like_byte : char -> bool
(** Membership in the pool (mirrors the extractor's sled heuristic). *)
