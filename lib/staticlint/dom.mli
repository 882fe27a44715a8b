(** Value abstraction for guard satisfiability.

    Template guards constrain {e constant variables} with point
    predicates only — [Equals], [One_of], [Nonzero], [Differ] — so the
    interval + known-bits reduced product (the {!Absint.V}
    domain) collapses, for this guard language, to its exact finite
    kernel: a constraint set is always either a {e finite} set of
    admissible values or the complement of one.  We represent that
    kernel directly; [meet] and [subset] are then exact, which makes the
    satisfiability ([SL006]) and vacuity ([SL007]) verdicts precise
    rather than heuristic — intervals with holes and congruences with a
    modulus would add representable states no guard can ever express. *)

type t
(** An admissible-value set for one constant variable. *)

val any : t
(** No constraint (top). *)

val none : t
(** Unsatisfiable (bottom). *)

val singleton : int32 -> t
val of_list : int32 list -> t
(** Exactly these values; the empty list is {!none}. *)

val exclude : int32 -> t
(** Every value but this one ([Nonzero] is [exclude 0l]). *)

val meet : t -> t -> t
(** Exact conjunction. *)

val is_empty : t -> bool
(** Bottom: no value satisfies the constraints. *)

val is_singleton : t -> int32 option
(** The single admissible value, if the set is exactly one value. *)

val subset : t -> t -> bool
(** [subset a b]: every value admitted by [a] is admitted by [b] —
    the implication test behind guard vacuity and subsumption. *)

val disjoint : t -> t -> bool
(** No value admitted by both.  Exact in every representation pair:
    finite/finite is set disjointness, finite/co-finite holds exactly
    when the finite side is contained in the exclusions, and
    co-finite/co-finite holds exactly when the exclusion sets cover the
    whole 32-bit universe (so top is never disjoint from anything but
    bottom). *)

val pp : Format.formatter -> t -> unit
