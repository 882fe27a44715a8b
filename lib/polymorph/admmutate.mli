(** ADMmutate-equivalent polymorphic shellcode engine.

    Wraps a payload in: a polymorphic NOP sled, a jmp/call/pop GetPC
    harness, and a randomized decoder loop over an encoded copy of the
    payload.  Per the paper's observation, the engine has two decoder
    families: a xor-with-key loop, and a load / mov-or-and-not-style
    transform chain / store loop.  Obfuscations applied: NOP-like
    insertion, garbage instructions (live registers respected),
    equivalent instruction substitution (pointer advance and constant
    routing), register reassignment, and out-of-order block sequencing
    stitched with jmps.

    The default family split is 68% xor / 32% alternate, matching the
    detection split the paper reports for the real toolkit. *)

type family = Xor_loop | Alt_chain

type generated = {
  code : string;  (** sled + decoder + GetPC + encoded payload *)
  family : family;
  sled_len : int;
  decoder_len : int;  (** bytes between sled and encoded payload *)
  payload_off : int;  (** offset of the encoded payload in [code] *)
  payload_len : int;
}

val generate :
  ?family:family ->
  ?sled_len:int ->
  ?out_of_order:bool ->
  ?junk:int ->
  Rng.t ->
  payload:string ->
  generated
(** [junk] is the maximum garbage-run length between decoder instructions
    (default 4).  Omitted options are drawn from [rng]. *)

val generate_staged :
  ?stages:int -> ?junk:int -> Rng.t -> payload:string -> generated
(** Multi-stage encoding: each stage wraps the previous stage's complete
    output (sled, decoder and ciphertext) as its payload, so only the
    outermost decoder is visible to static analysis.  [stages] defaults
    to 2.  The [payload_off]/[payload_len] fields describe the outermost
    ciphertext (the encoded inner stage). *)
