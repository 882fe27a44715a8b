(** Automatic signature generation from suspicious payload pools — the
    Autograph / EarlyBird / Polygraph line of work the paper positions
    itself against (its references [7], [8], [14]).

    Given a pool of payloads attributed to one attack, extract byte
    tokens that recur across (nearly) the whole pool, longest first, and
    use their conjunction as the signature.  Works well for worms with
    fixed protocol framing (Code Red II's request line survives), and
    collapses on fully polymorphic shellcode whose only invariants are a
    few scattered bytes — exactly the failure mode that motivates
    semantic detection. *)

type t = {
  tokens : string list;  (** all must be present, longest first *)
  trained_on : int;
}

val infer :
  ?min_token_len:int -> ?coverage:float -> ?max_tokens:int -> string list -> t
(** Extract tokens of at least [min_token_len] bytes (default 8) present
    in at least [coverage] (default 0.9) of the pool, greedily longest
    first, at most [max_tokens] (default 8).  The token list is empty
    when the pool shares no sufficiently long invariant.
    @raise Invalid_argument on an empty pool. *)

val matches : t -> string -> bool
(** All tokens present (an empty signature matches nothing). *)

val specificity : t -> int
(** Total signature bytes — a proxy for false-positive resistance. *)
