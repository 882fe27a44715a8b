(** Seeded fault injection for the delta channel.

    The ingest layer already has a byte-level adversary
    ({!Sanids_ingest.Fault}); this is its cluster sibling, operating on
    the {e delivery} of whole deltas rather than the bytes of packets.
    A plan is a list of [(kind, probability)] pairs rolled per shipping
    attempt from a {!Rng.t}, so a given [(spec, seed)] replays the
    identical loss pattern.

    Spec syntax (the CLI [--channel-fault] argument):
    ["drop=0.2,dup=0.1,delay=0.05,reorder=0.2,truncate=0.1"] —
    comma-separated [kind=probability], probabilities in [\[0,1\]].
    Kinds: [drop] (the attempt vanishes; the sender retries), [dup]
    (the delta is delivered twice), [delay] (the attempt sleeps before
    sending), [reorder] (the delta is delivered after its successor),
    [truncate] (the attempt sends a corrupted prefix, which the
    aggregator rejects as malformed; the sender retries).

    Two consumers: the live sensor rolls {!next_action} per attempt,
    and the qcheck exactness property folds a whole stream through the
    pure {!deliveries} model, which captures what an at-least-once
    sender over this channel ultimately presents to the aggregator. *)

type kind = Drop | Duplicate | Delay | Reorder | Truncate

type t = (kind * float) list
(** A fault plan; order is roll order within one attempt. *)

val spec : t Spec.t
(** The spec syntax above; the empty spec is the empty plan. *)

val of_string : string -> (t, string) result

val of_string_exn : string -> t
(** @raise Invalid_argument as {!of_string}'s [Error]. *)

val to_string : t -> string

type action =
  | Deliver  (** send normally *)
  | Lose  (** pretend to send, report failure — forces a retry *)
  | Send_twice  (** deliver, then deliver again *)
  | Sleep of float  (** pause up to 50 ms, then deliver *)
  | Corrupt  (** send a truncated prefix (a malformed delta), retry *)

val next_action : Rng.t -> t -> action
(** Roll one attempt: the first kind in plan order whose probability
    fires wins ([Reorder] maps to [Sleep], which is how reordering
    manifests on a live channel); [Deliver] otherwise. *)

val deliveries : Rng.t -> t -> 'a list -> 'a list
(** The pure at-least-once channel model: what sequence of deltas the
    aggregator ultimately {e receives} when a retrying sender pushes
    [items] through a channel with this plan.  Dropped, corrupted and
    delayed attempts are re-delivered later (each item is redelivered
    at most once before succeeding, so the model always terminates);
    duplicated attempts appear twice; reordered items land after their
    successor.  Guarantees: the result contains every input at least
    once, and nothing else. *)
