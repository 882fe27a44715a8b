(** A concrete IA-32 interpreter for the modelled instruction subset.

    Used to {e validate} the rest of the system: the polymorphic engines'
    decoders are executed here to prove they really reconstruct the
    original payload (including through self-modifying code), and the
    test suite cross-checks the abstract {!Sanids_ir.Absint} domain
    against concrete register values.

    The machine is a single flat arena: code is loaded at {!code_base},
    the stack grows down from the top of the arena.  Instructions are
    re-decoded from memory at each step, so self-modifying decoders
    work.  Unmapped access, undecodable bytes and exhausted step budgets
    stop execution with a descriptive outcome. *)

type t

type outcome =
  | Running
  | Syscall of int  (** hit [int n]; execution can be resumed *)
  | Halted of string  (** ret at top level, int3, fault, or bad opcode *)

val code_base : int32
(** Where the code image is loaded (0x08048000, the classic ELF text
    base). *)

val default_arena_size : int
(** 256 KiB: the arena {!create} makes unless told otherwise. *)

val code_limit : arena_size:int -> int
(** The largest code image an arena of [arena_size] bytes takes: all
    but its top 4 KiB, which the stack keeps. *)

val initial_esp : arena_size:int -> int32
(** ESP as {!create} sets it: 16 bytes below the top of the arena. *)

val create : ?arena_size:int -> code:string -> unit -> t
(** Fresh machine with [code] loaded at {!code_base}, ESP at
    {!initial_esp}, all other registers zero.
    @raise Invalid_argument when [code] is longer than {!code_limit}. *)

val reg : t -> Reg.t -> int32
val set_reg : t -> Reg.t -> int32 -> unit

val eip : t -> int32
val set_eip : t -> int32 -> unit

val read_mem_opt : t -> int32 -> int -> string option
(** [read_mem_opt t addr n] is the [n] bytes at [addr], or [None] when
    any of them falls outside the arena. *)

val write_mem_opt : t -> int32 -> string -> unit option
(** Store a string into the arena; [None] (and no partial write) when
    any byte would fall outside it.  Host-side seeding, not a guest
    store: {!written_count} does not count it. *)

val written_count : t -> int
(** Distinct arena bytes the guest has stored (stores, pushes, string
    writes), not counting the code {!create} loads.  Dynamic
    confirmation reads this log to catch self-modifying decoders. *)

val was_written : t -> int32 -> bool
(** Whether the guest has stored to the byte at this address ([false]
    outside the arena); the same log as {!written_count}. *)

val flag_zf : t -> bool
val flag_sf : t -> bool
val flag_cf : t -> bool

val flags_word : t -> int
(** The EFLAGS low word as the machine materializes it for [pushfd]:
    CF(1) · reserved(2, always set) · PF(4) · ZF(64) · SF(128) ·
    DF(0x400) · OF(0x800).  Unmodelled flags read as clear. *)

val set_flags_word : t -> int -> unit
(** Load the modelled flags from an EFLAGS word ([popfd]'s loader);
    unmodelled bits are ignored.  Lets test vectors seed flag state
    directly. *)

val step : t -> outcome
(** Execute one instruction. *)

val run : ?max_steps:int -> ?stop_at:int32 -> t -> outcome * int
(** Step until a non-[Running] outcome, until EIP equals [stop_at], or
    until [max_steps] (default 100_000).  Returns the final outcome
    ([Running] means stopped at [stop_at] or out of budget) and the
    number of steps taken. *)

val steps_taken : t -> int
