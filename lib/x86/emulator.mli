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

val create : ?arena_size:int -> code:string -> unit -> t
(** Fresh machine with [code] loaded at {!code_base}, ESP at the top of
    the arena, all other registers zero. *)

val reg : t -> Reg.t -> int32
val set_reg : t -> Reg.t -> int32 -> unit

val eip : t -> int32
val set_eip : t -> int32 -> unit

val read_mem_opt : t -> int32 -> int -> string option
(** [read_mem_opt t addr n] is the [n] bytes at [addr], or [None] when
    any of them falls outside the arena. *)

val write_mem_opt : t -> int32 -> string -> unit option
(** Store a string into the arena; [None] (and no partial write) when
    any byte would fall outside it. *)

val set_write_hook : t -> (int32 -> unit) option -> unit
(** Install (or clear) an observer called with the address of every
    byte the machine stores — guest stores, pushes and string writes
    all funnel through it.  Host-side seeding via {!write_mem_opt} is
    observed too; install the hook after seeding to watch only the
    guest.  The dynamic-confirmation stage uses this to detect
    self-modifying decoders (writes later executed). *)

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
