(** Abstract interpretation over the lifted IR — the one abstract domain
    over {!Sem}.

    The {!V} domain carries an unsigned interval, known bits (which
    subsume a power-of-two congruence) and a payload-taint bit, all
    reduced against each other.  Constants reached through any arithmetic route
    (mov+add chains, stack round-trips, xor tricks, byte-wide writes) fold
    to singletons, which is what the paper's contribution (c) needs.  The
    module offers two consumers:

    - a per-{!Sem.t} transfer function ({!step} / {!step_insn}) with
      constant read-outs ({!reg32}, {!reg_low8}, {!value},
      {!value_low8}, {!slot_value}), used by the template matcher, by
      the soundness oracles and by the bounded abstract executor in
      [sanids.confirm];
    - an intraprocedural CFG fixpoint ({!analyze}) with widening at loop
      heads and one narrowing pass, plus a may-write {!Region} summary,
      used by the SL4xx semantic lints.

    Soundness contract (property-tested against the validated emulator):
    every abstract operation over-approximates its concrete counterpart
    — if concrete inputs are contained in the abstract inputs, the
    concrete result is contained in the abstract result. *)

(** Abstract 32-bit values: interval × known bits × taint. *)
module V : sig
  type t
  (** Either bottom (no value) or a non-empty set
      [{ v | lo <= v <= hi  &&  v land known = bits }]
      of unsigned 32-bit values (a congruence mod 2{^k} is the case
      where the low k bits are known), with a taint bit that is set when the
      value may be derived from payload bytes. *)

  val bot : t
  val top : t
  (** All 2{^32} values, tainted. *)

  val top_clean : t
  (** All 2{^32} values, untainted. *)

  val const : int32 -> t
  (** Singleton, untainted. *)

  val byte : t
  (** The interval [\[0, 255\]], tainted — an unknown payload byte. *)

  val range : int64 -> int64 -> t
  (** [range lo hi]: unsigned interval, untainted.
      Out-of-order or out-of-range bounds are clamped. *)

  val is_bot : t -> bool
  val is_const : t -> int32 option
  val contains : t -> int32 -> bool
  val taint : t -> bool
  val tainted : t -> t

  val bounds : t -> (int64 * int64) option
  (** Unsigned [lo, hi] bounds; [None] on bottom. *)

  val size : t -> int64
  (** Number of admissible values ([0] on bottom). *)

  val equal : t -> t -> bool
  val leq : t -> t -> bool
  val join : t -> t -> t
  val widen : t -> t -> t
  (** [widen old next]: extrapolate unstable interval bounds to the type
      extremes and keep only the known low bits; the known-bits
      component has finite height and is otherwise simply joined.  Guarantees stabilisation of any ascending chain. *)

  val narrow : t -> t -> t
  (** [narrow wide refined]: take the refined bound wherever widening had
      jumped to an extreme. *)

  (* Abstract transformers.  Each mirrors the emulator's 32-bit operation
     and over-approximates it. *)
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val logand : t -> t -> t
  val logor : t -> t -> t
  val logxor : t -> t -> t
  val lognot : t -> t
  val mul : t -> t -> t
  val shift : Insn.shift -> t -> int -> t
  (** Immediate-count shift/rotate at 32-bit width, count masked to 5 bits
      exactly as the emulator does. *)

  val add_wrapped : t -> int32 -> t
  (** [add_wrapped v c]: add a constant with 32-bit wrap (pointer
      arithmetic; exact on intervals). *)

  val low_byte : t -> t
  (** [logand v 0xFF] — the value's low 8 bits. *)

  val low8 : t -> int option
  (** The low byte, when it is the same for every admissible value —
      e.g. after [mov al, imm] over an unknown register. *)

  val merge_low8 : t -> t -> t
  (** [merge_low8 old b]: replace the low byte of [old] with [b]
      (which must lie in [\[0,255\]]); the 8-bit register write.  A
      constant [b] is kept exactly, as known low bits. *)

  val without : t -> int32 -> t
  (** Refine: remove one value if it is an interval endpoint (used on
      branch refinement, e.g. the taken edge of [loop]). *)

  val pp : Format.formatter -> t -> unit
end

(** May-write memory summary: which addresses a fragment can store to. *)
module Region : sig
  type t

  val empty : t
  (** No write can happen. *)

  val top : t
  (** A write to an unknown address may happen. *)

  val store : t -> addr:V.t -> width:int -> t
  (** Account one store of [width] bytes at abstract address [addr]. *)

  val join : t -> t -> t
  val widen : t -> t -> t
  val equal : t -> t -> bool

  val writes : t -> bool
  (** Some write may happen. *)

  val max_bytes : t -> int64 option
  (** Upper bound on the number of distinct bytes the summarised writes
      can touch; [None] when unbounded (top). *)

  val may_touch : t -> lo:int64 -> hi:int64 -> bool
  (** Could any summarised write land in the unsigned address range
      [\[lo, hi\]]?  [false] only when provably impossible. *)

  val pp : Format.formatter -> t -> unit
end

type state = {
  regs : V.t array;  (** indexed by {!Reg.code} *)
  stack : V.t list;
      (** LIFO mirror of the concrete stack: slot [k] is [\[esp+4k\]];
          ESP moves by a known multiple of 4 drop or add slots, any
          other ESP write empties it; at most 128 slots are kept, the
          deepest forgotten first *)
  written : Region.t;  (** may-write summary accumulated so far *)
}

val initial : state
(** All registers {!V.top_clean}, empty stack, nothing written. *)

val entry_state : ?arena_size:int -> unit -> state
(** The emulator's entry state: all registers 0, [ESP] at
    [code_base + arena_size - 16] (default arena 256 KiB). *)

val get : state -> Reg.t -> V.t
val set : state -> Reg.t -> V.t -> state

val step : state -> Sem.t -> state
(** Transfer one IR operation, folding stores into {!state.written}. *)

val step_insn : state -> Insn.t -> state
(** Fold {!step} over {!Sem.lift}. *)

val reg32 : state -> Reg.t -> int32 option
(** The register's value, when it is a single constant. *)

val reg_low8 : state -> Reg.t -> int option
(** The register's low byte (bits 0–7), even when the rest is unknown. *)

val value : state -> Sem.value -> int32 option
(** Constant value of an operand summary. *)

val value_low8 : state -> Sem.value -> int option
(** Constant low byte of an operand summary. *)

val slot_value : state -> int -> int32 option
(** Constant value of the [k]-th tracked stack slot (top = 0). *)

val join : state -> state -> state
val widen : state -> state -> state
val narrow : state -> state -> state
val equal : state -> state -> bool

type result = {
  in_states : (int, state) Hashtbl.t;
      (** per reachable block start offset, the fixpoint in-state *)
  out : state;
      (** join over every reachable block's post-state — its [written]
          component is the whole-fragment may-write summary *)
  reachable : int list;  (** reachable block start offsets, ascending *)
}

val analyze : ?entry:state -> ?base:int32 -> Cfg.t -> result
(** Intraprocedural fixpoint over a CFG.  Widening is applied at targets
    of {!Cfg.back_edges} after a couple of plain joins, followed by one
    narrowing sweep.  [Call] terminators push the constant return
    address [base + return_to] (default base {!Emulator.code_base}),
    which is what makes GetPC-style decoders' pointers constant. *)
