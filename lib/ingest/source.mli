(** Follow-mode packet sources — what the [sanids serve] feeder drains.

    A source is a non-blocking pull cursor: {!next} yields a decoded
    packet, [Idle] when nothing is available {e right now} (the
    daemon's cue to run control work and sleep a poll tick), or [Eof]
    when the source is permanently exhausted.  Decoding goes through
    the typed {!Ingest} boundary: malformed records are counted per
    reason against the supplied metrics and skipped — a source never
    raises on bad input.  Per-record decode (and its records/errors
    counters) runs only when the consumer pulls, so records a drain
    leaves undispatched are never counted and the reconciliation
    identity [records = packets + errors + shed] stays auditable end
    to end. *)

type event = Packet of Packet.t | Idle | Eof

type t

val next : t -> event
val close : t -> unit

val describe : t -> string
(** ["file:PATH"], ["dir:PATH"] or ["fifo:PATH"]. *)

val of_path :
  ?metrics:Ingest.metrics -> ?ext:string -> string -> (t, string) result
(** Dispatch on the path's file kind.
    - Regular file: the whole capture, decoded through
      {!Ingest.decode_file}, each parseable record yielded, then [Eof].
      [Error] on unreadable files and rejected global framing.
    - Directory: a spool watch.  Each {!next} with an empty queue
      re-scans it and admits not-yet-seen [ext] (default [".pcap"])
      files in name order, decoding each exactly once; [Idle] when
      nothing new has landed.  Writers must move files in atomically
      (write elsewhere, then [rename]) — the maildir contract.  Never
      [Eof].
    - Named pipe: streaming pcap, framed incrementally as bytes arrive.
      The FIFO is opened read-write, so the daemon holds its own writer
      end and external writers can come and go: [Idle] whenever the
      pipe is dry.  Records are framed with the same header parsers as
      [Sanids_pcap.Pcap.decode].  A record whose header claims more than
      {!Ingest.decode_record}'s admission bound is shed at header time
      ({!Ingest.admit}: counted as file mode counts it) and its body is
      discarded as it arrives, so the buffer never holds more than one
      admitted record.  A corrupt global header poisons the framing and
      yields [Eof] (counted as [pcap_framing]). *)
