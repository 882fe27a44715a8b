(** Per-packet work budgets — the anti-DoS fuel of the analysis path.

    The semantic analyzer is the expensive stage by design, which makes
    the NIDS itself an algorithmic-complexity target: pathological
    payloads (giant [%uXXXX] runs, repetition bombs, jmp-chain mazes)
    can blow up extraction, disassembly or matching and starve the
    detector during the very outbreak it should be catching.  A
    {!t} is a mutable fuel tank started once per analyzed packet and
    threaded through every stage; each stage {e takes} fuel before doing
    work and stops cleanly — returning a {!outcome} of [Truncated] —
    the moment any dimension runs dry.

    Dimensions: bytes materialized by extraction, instructions decoded
    by the trace walker, matcher step attempts, and a wall-clock
    deadline (checked lazily every few hundred takes, so the clock is
    off the per-instruction hot path).  Fuel accounting is exact: a
    denied take spends nothing, so [spent] never exceeds [limits]. *)

type reason =
  | Bytes  (** extraction output exceeded [max_bytes] *)
  | Instructions  (** trace walking exceeded [max_insns] *)
  | Match_steps  (** template matching exceeded [max_match_steps] *)
  | Deadline  (** wall clock exceeded [deadline] seconds *)

val reason_to_string : reason -> string
(** ["bytes"] / ["instructions"] / ["match_steps"] / ["deadline"] — the
    [stage] label of degradation metrics. *)

type outcome = Complete | Truncated of reason

val outcome_to_string : outcome -> string

type limits = {
  max_bytes : int;  (** extraction output bytes; [max_int] = unlimited *)
  max_insns : int;  (** decoded trace instructions *)
  max_match_steps : int;  (** matcher step attempts *)
  deadline : float;  (** wall-clock seconds; [0.] disables the clock *)
}

val unlimited : limits
(** Every dimension at [max_int], no deadline: threading this budget is
    behaviourally identical to no budget at all. *)

val default_limits : limits
(** A production-shaped per-packet allowance: generous for any real
    exploit, fatal for complexity bombs ([max_bytes = 262144],
    [max_insns = 200000], [max_match_steps = 400000],
    [deadline = 0.25]). *)

val validate_limits : limits -> (limits, string) result
(** Every dimension must be positive ([deadline] may be [0.] = off). *)

val limits_spec : limits Spec.t
(** ["bytes=N,insns=N,steps=N,deadline=S"] over {!default_limits}, or
    ["default"] or ["unlimited"]; an unlimited dimension prints as
    [max_int]. *)

val limits_to_string : limits -> string
val limits_of_string : string -> (limits, string) result

type t

val start : limits -> t
(** A full tank; the deadline clock starts now. *)

type spent = { bytes : int; insns : int; steps : int }

val spent : t -> spent
(** Fuel consumed so far.  Invariant: each field is at most its limit. *)

val take_bytes : t -> int -> bool
(** [take_bytes b n] grants materializing [n] more bytes.  [false]
    marks the budget tripped ([Bytes]) and spends nothing; once a
    budget has tripped for any reason every take is denied. *)

val take_insns : t -> int -> bool
val take_steps : t -> int -> bool

val alive : t -> bool
(** Not yet tripped (also polls the deadline). *)

val tripped : t -> reason option
(** The {e first} dimension that ran dry, if any. *)

val outcome : t -> outcome
(** [Complete] iff the budget never tripped. *)
