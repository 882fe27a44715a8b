(** Seeded fault injection for capture streams.

    A fault plan is a list of [(kind, probability)] pairs applied
    independently to each record (or packet) of a stream, driven by a
    {!Rng.t} so a given [(spec, seed)] pair replays the exact same
    corruption.  This is the adversary the resilient-ingest contract is
    tested against: after any plan, {!Ingest} decode entry points must
    still never raise.

    Spec syntax (also the CLI [--fault] argument):
    ["truncate=0.1,bitflip=0.05,dup=0.01,reorder=0.2,garbage=0.02"] —
    comma-separated [kind=probability], each probability in [\[0,1\]].
    Kinds: [truncate] (cut the record body at a random offset),
    [bitflip] (flip one random bit), [dup] (emit the record twice),
    [reorder] (swap with the following record), [garbage] (prepend 1–16
    random bytes). *)

type kind = Truncate | Bit_flip | Duplicate | Reorder | Garbage_prepend

type t = (kind * float) list
(** A fault plan; order is application order within one record. *)

val spec : t Spec.t
(** The spec syntax above; the empty spec is the empty plan. *)

val of_string : string -> (t, string) result

val to_string : t -> string

val records : seed:int64 -> t -> Sanids_pcap.Pcap.record list -> Sanids_pcap.Pcap.record list
(** Mutate a whole capture's records: byte-level faults per record
    ([Truncate], [Bit_flip], [Garbage_prepend]; [orig_len] is preserved
    so truncation looks like a snap-length cut), [Duplicate] copies and
    [Reorder] swaps. *)

val file : seed:int64 -> t -> Sanids_pcap.Pcap.file -> Sanids_pcap.Pcap.file
(** {!records} applied inside a decoded capture. *)
