(** Seeded adversarial traffic synthesis — algorithmic-complexity bombs
    aimed at the analysis path itself.

    Each payload family targets one stage's worst case: giant [%uXXXX]
    escape runs balloon Unicode decoding, repetition bombs stretch the
    filler-run scanners, jmp-chain mazes force the trace walker through
    endless hops, and garbage x86 makes the disassembler chew junk at
    every offset.  None of them exhibits real exploit behaviour, so the
    correct verdict is silence — the interesting question is how much
    work the pipeline burns saying it.  The hardening tests and the
    bench harness both draw from here. *)

type kind =
  | Unicode_bomb  (** one giant [%uXXXX] run (decoder amplification) *)
  | Repetition_bomb  (** long filler runs in many flavours *)
  | Jmp_maze  (** dense jmp-to-jmp chains for the trace walker *)
  | Garbage_x86  (** high-entropy non-printable bytes, junk at every entry *)
  | Decoy_decoder
      (** a NOP sled into a textbook xor-decoder whose pointer is a wild
          unmapped address: statically indistinguishable from ADMmutate
          (the semantic matcher flags it), concretely a fault on the
          first store — the false positive the dynamic-confirmation
          stage exists to refute *)
  | Mixed  (** one of the above, drawn per payload *)

val kinds : kind list
(** The concrete kinds (everything but [Mixed]). *)

val kind_to_string : kind -> string
val kind_of_string : string -> kind option

val payload : ?kind:kind -> ?size:int -> Rng.t -> string
(** One adversarial payload of roughly [size] bytes (default 8192);
    [kind] defaults to [Mixed]. *)

val packets :
  ?kind:kind ->
  ?size:int ->
  ?rate:float ->
  Rng.t ->
  n:int ->
  t0:float ->
  clients:Ipaddr.prefix ->
  servers:Ipaddr.prefix ->
  Packet.t list
(** [n] adversarial payloads, each in a TCP segment to port 80, with
    exponential inter-arrivals at [rate] packets/s (default 1000),
    timestamps from [t0]. *)
