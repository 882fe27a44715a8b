(** Bounded multi-producer/multi-consumer admission queues.

    The load-shedding primitive of the stream pipeline: a fixed-capacity
    queue whose behaviour when full is an explicit {!policy}, so a
    producer that outruns its consumer holds bounded memory by
    construction.  Safe across OCaml 5 domains (mutex + condition; no
    busy waiting). *)

type policy =
  | Drop_newest  (** a push into a full queue discards the pushed item *)
  | Drop_oldest  (** a push into a full queue evicts the head first *)
  | Block  (** a push into a full queue waits for space *)

val policy_to_string : policy -> string
(** ["drop_newest"] / ["drop_oldest"] / ["block"] — the label used in
    shed metrics and CLI flags. *)

val policy_of_string_result : string -> (policy, string) result
(** Inverse of {!policy_to_string}, with a typed error message (["drop policy: …"]),
    matching the [Budget.limits_of_string] / [Breaker.config_of_string]
    spec-parser convention. *)

type 'a t

val create : capacity:int -> policy -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

type push_result =
  | Queued
  | Shed_newest  (** the pushed item was discarded ([Drop_newest]) *)
  | Shed_oldest of int  (** [n] queued items were evicted ([Drop_oldest]) *)

val push : 'a t -> 'a -> push_result
(** Enqueue one item, applying the queue's policy when full ([Block]
    waits, so its pushes always return [Queued]).  Pushing into a
    closed queue returns [Shed_newest] regardless of policy: the
    consumer side is gone. *)

type batch_result = {
  queued : int;  (** items admitted to the queue *)
  shed : int;  (** items lost: discarded pushes plus [Drop_oldest] evictions *)
}

val push_batch : 'a t -> 'a list -> batch_result
(** Enqueue a batch under one lock acquisition, applying the queue's
    policy per item exactly as a sequence of {!push} calls would —
    [queued + shed] accounts for every offered item plus every eviction.
    The stream feeder uses this to amortize per-packet lock traffic. *)

val pop_batch : 'a t -> max:int -> 'a list
(** Dequeue up to [max] items in arrival order, waiting while the queue
    is empty and open.  [[]] means the queue is closed and drained —
    the consumer's termination signal. *)

val close : 'a t -> unit
(** No further items are admitted; blocked producers and consumers wake
    up.  Items already queued remain poppable. *)
