(** Junk diagnostics for an extracted code region, via {!Defuse}.

    Codes (stable):
    - [SL301] {e warn} — the region yields no decodable instructions
      from its entry offset.
    - [SL302] {e info} — junk density: how many trace instructions are
      dead writes ({!Defuse.dead_fraction}).
    - [SL303] {e warn} — dead-write fraction at or above the threshold
      (0.25): the region looks heavily padded by a polymorphic junk
      engine.
    - [SL404] {e info} — self-modification reachability: the abstract
      interpretation of the region's whole CFG ({!Sanids_ir.Absint})
      shows a reachable store that may overwrite the region's own bytes
      — the static disassembly should not be trusted without dynamic
      confirmation. *)

val lint : subject:string -> string -> Finding.t list
(** Lint a raw code region (trace from entry offset 0). *)
