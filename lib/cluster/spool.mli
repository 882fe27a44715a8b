(** The sensor's crash journal: unacked deltas on disk.

    A sensor journals every delta {e before} the first shipping
    attempt and unlinks it only on an aggregator ack, so the set of
    files in the spool directory is exactly the set of deltas the
    aggregator has not confirmed.  A sensor that is SIGKILLed mid-ship
    and respawned over the same directory replays that set losslessly
    — at worst re-sending something the aggregator already applied,
    which the dedup layer absorbs.

    The directory also carries the {e epoch} of the sensor's process
    incarnation in an [EPOCH] file: {!open_dir} reads it, bumps it,
    and persists the bump before returning, so sequence numbers from a
    crashed incarnation can never collide with the respawn's.  Journal
    writes are tmp-file-then-rename, so a crash mid-write leaves
    either a complete delta or an ignorable [.tmp]. *)

type t

val open_dir : string -> (t, string) result
(** Create the directory if needed, read-bump-persist the epoch. *)

val epoch : t -> int
(** This incarnation's epoch (1 on a fresh directory). *)

val journal : t -> seq:int -> string -> (unit, string) result
(** Persist an encoded delta for [seq] of this incarnation's epoch. *)

val ack : t -> epoch:int -> seq:int -> unit
(** Remove the journal entry — the aggregator confirmed it, or the
    sensor found it undecodable on replay.  May name
    a prior incarnation's epoch (replayed entries).  Best-effort. *)

val pending : t -> (int * int * string) list
(** All journaled-but-unacked deltas as [(epoch, seq, payload)],
    ordered by [(epoch, seq)] — prior incarnations first.  Unreadable
    or half-written entries are skipped. *)
