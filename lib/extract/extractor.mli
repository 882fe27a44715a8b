(** The "Binary Detection and Extraction" stage (paper §4.2).

    Given an application payload, locate the regions that plausibly hold
    machine code and return them as binary frames for the disassembler:

    - runs of [%uXXXX] escapes are decoded to their binary form (the Code
      Red II transfer encoding);
    - regions of non-textual bytes are cut out with surrounding context,
      because polymorphic NOP regions and decoder stubs are largely
      printable and sit next to the high-byte ciphertext;
    - everything else (well-formed protocol text) is dropped, which is
      what makes the pipeline affordable compared to running the
      disassembler over every byte (the paper's efficiency claim). *)

type origin = Unicode_escape | Raw_binary

type frame = { off : int; data : Slice.t; origin : origin }
(** Raw-binary frames are views into the scanned payload (no copy);
    unicode frames own their decoded bytes. *)

type config = {
  min_unicode_run : int;  (** escapes, default 4 *)
  min_repeat : int;  (** filler-run length for {!suspicious}, default 48 *)
  min_binary_region : int;  (** bytes, default 24 *)
  gap_merge : int;  (** merge binary regions separated by fewer bytes *)
  context_before : int;  (** printable context kept ahead of a region *)
  context_after : int;
  max_frames : int;
  max_frame_bytes : int;
      (** hard per-frame size ceiling (default 65536): caps each
          [%uXXXX] run's decoded output and each raw region cut, and
          bounds the repetition scanners' window — the structural
          defence against decompression/repetition bombs, independent of
          any per-packet budget *)
}

val default_config : config

val suspicious : ?config:config -> Slice.t -> bool
(** Cheap pre-filter: does the payload show any overflow indicator
    (escape runs, long filler runs, NOP-like sleds, return-address
    runs, binary regions)?  One allocation-free pass with early exit;
    equal to the disjunction of the list scanners ({!Unicode.unicode_runs}
    with [min_unicode_run], {!Repetition.runs} with [min_repeat],
    {!Repetition.sled_like}, {!Repetition.ret_address_runs} — the last
    three windowed to [max_frame_bytes] — and {!binary_regions}) being
    non-empty. *)

val binary_regions : min_len:int -> gap_merge:int -> Slice.t -> (int * int) list
(** Maximal regions of non-text bytes (anything but printable ASCII,
    tab, LF, CR), neighbours at most [gap_merge] bytes apart merged,
    kept when at least [min_len] long: [(offset, length)] pairs in
    payload order.  Raw frames are cut around these. *)

val extract :
  ?budget:Budget.t ->
  ?metrics:Sanids_obs.Registry.t ->
  ?config:config ->
  Slice.t ->
  frame list
(** Binary frames, in payload order.  Empty for plain protocol text.
    When [metrics] is given, per-origin frame counts and frame bytes are
    accumulated there ([sanids_extract_unicode_frames_total],
    [sanids_extract_raw_frames_total], [sanids_extract_bytes_total]).
    When [budget] is given, each frame's bytes are taken from it before
    the frame is emitted; the frame that exhausts the byte fuel and
    everything after it are dropped (the budget records the trip). *)

val extract_bounded :
  ?metrics:Sanids_obs.Registry.t ->
  ?config:config ->
  budget:Budget.t ->
  Slice.t ->
  frame list * Budget.outcome
(** {!extract} with the stage outcome made explicit: [Truncated Bytes]
    when extraction ran out of byte fuel, [Complete] otherwise (the
    outcome reflects the shared budget's state after this stage). *)

val pp_frame : Format.formatter -> frame -> unit
