(** Bounded LRU cache.

    Hashtable + intrusive doubly-linked list: [find], [add] and eviction
    are all O(1).  Keys are compared with structural equality, so a hit
    is always an exact match (content equality, not just hash equality) —
    the property the NIDS verdict cache relies on for exactness. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create cap] holds at most [cap] bindings.
    @raise Invalid_argument when [cap <= 0]. *)

val find : ('k, 'v) t -> 'k -> 'v option
(** Lookup; a hit promotes the binding to most-recently-used. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert or replace, promoting to most-recently-used; evicts the
    least-recently-used binding when over capacity. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Membership without promotion. *)

val length : ('k, 'v) t -> int

val evictions : ('k, 'v) t -> int
(** Total bindings evicted for capacity since [create]. *)

val clear : ('k, 'v) t -> unit
(** Drop every binding (does not reset the eviction counter). *)
