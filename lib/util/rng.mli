(** Deterministic pseudo-random number generation.

    Every stochastic component of the system (polymorphic engines, workload
    generators, property tests) draws from an explicit generator created
    from a seed, so that every experiment in EXPERIMENTS.md is exactly
    reproducible.  The core is splitmix64, which is small, fast and has
    well-understood statistical quality. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same future
    stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    decorrelated from [t]'s — use to hand sub-components their own
    generator. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val byte : t -> int
(** Uniform in [\[0, 255\]]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array.  @raise Invalid_argument on
    an empty array. *)

val pick_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val bytes : t -> int -> string
(** [bytes t n] is a string of [n] uniform random bytes. *)
