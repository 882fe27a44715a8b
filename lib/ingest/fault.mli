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

val kind_to_string : kind -> string
(** ["truncate"], ["bitflip"], ["dup"], ["reorder"], ["garbage"]. *)

type t = (kind * float) list
(** A fault plan; order is application order within one record. *)

val of_string : string -> (t, string) result
(** Parse a spec.  [Error] names the offending token. *)

val to_string : t -> string
(** Canonical spec text ([of_string (to_string t) = Ok t]). *)

val mutate_record :
  Rng.t -> t -> Sanids_pcap.Pcap.record -> Sanids_pcap.Pcap.record list
(** Apply byte-level faults ([Truncate], [Bit_flip], [Garbage_prepend])
    and [Duplicate] to one record; [Reorder] is stream-level and ignored
    here.  Returns 0 ([Truncate] may leave an empty body — still one
    record), 1 or 2 records; [orig_len] is preserved so truncation looks
    like a snap-length cut. *)

val records : seed:int64 -> t -> Sanids_pcap.Pcap.record list -> Sanids_pcap.Pcap.record list
(** Mutate a whole capture's records, including [Reorder] swaps. *)

val file : seed:int64 -> t -> Sanids_pcap.Pcap.file -> Sanids_pcap.Pcap.file
(** {!records} applied inside a decoded capture. *)

val packets : seed:int64 -> t -> Packet.t Seq.t -> Packet.t Seq.t
(** Lazy stream transformer for parsed packets: each packet is
    re-encoded to bytes, mutated, and re-parsed; mutants that no longer
    parse are dropped (that is the point — they would have been typed
    ingest errors).  Single-pass: the result sequence memoizes nothing,
    so force it once. *)
