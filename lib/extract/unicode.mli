(** IIS-style [%uXXXX] escape decoding (the Code Red transfer
    encoding). *)

type run = { off : int; count : int; decoded : string }
(** A run of consecutive escapes: [off] is the byte offset of the first
    '%', [count] the number of escapes, [decoded] the binary form
    (2 bytes per [%uXXXX], little-endian). *)

val unicode_runs : ?min_run:int -> ?max_decoded:int -> Slice.t -> run list
(** Maximal runs of at least [min_run] (default 4) consecutive [%uXXXX]
    escapes.  [max_decoded] (default unlimited) caps each run's
    [decoded] output: the run is still scanned to its true end ([count]
    is exact) but no more than [max_decoded] bytes are materialized —
    the defence against [%u] decompression bombs. *)

val decode_u_escape : Slice.t -> int -> (int * int) option
(** [decode_u_escape s i] decodes one [%uXXXX] at offset [i]: the 16-bit
    value and the next offset. *)
