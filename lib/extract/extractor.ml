type origin = Unicode_escape | Raw_binary
type frame = { off : int; data : Slice.t; origin : origin }

type config = {
  min_unicode_run : int;
  min_repeat : int;
  min_binary_region : int;
  gap_merge : int;
  context_before : int;
  context_after : int;
  max_frames : int;
  max_frame_bytes : int;
}

let default_config =
  {
    min_unicode_run = 4;
    min_repeat = 48;
    min_binary_region = 24;
    gap_merge = 16;
    context_before = 192;
    context_after = 64;
    max_frames = 16;
    max_frame_bytes = 65_536;
  }

(* Text bytes: printable ASCII plus whitespace. *)
let is_text c =
  let b = Char.code c in
  (b >= 0x20 && b < 0x7F) || b = 0x09 || b = 0x0A || b = 0x0D

(* The suspicion gate's byte classes, one table lookup per byte: a byte
   may be both (the inc/dec/push-register opcodes are letters). *)
let text_bit = 1
let nop_bit = 2

let classes =
  String.init 256 (fun b ->
      let c = Char.chr b in
      Char.chr
        ((if is_text c then text_bit else 0) lor if Repetition.nop_like c then nop_bit else 0))

let byte_class c = Char.code (String.unsafe_get classes (Char.code c))

(* Maximal [gap_merge]-merged regions of non-text bytes of at least
   [min_len], as (start, length) pairs. *)
let binary_regions ~min_len ~gap_merge s =
  let n = Slice.length s in
  let raw = ref [] in
  let i = ref 0 in
  while !i < n do
    if not (is_text (Slice.unsafe_get s !i)) then begin
      let j = ref (!i + 1) in
      while !j < n && not (is_text (Slice.unsafe_get s !j)) do
        incr j
      done;
      raw := (!i, !j - !i) :: !raw;
      i := !j
    end
    else incr i
  done;
  let merged =
    List.fold_left
      (fun acc (o, l) ->
        match acc with
        | (po, pl) :: tl when o - (po + pl) <= gap_merge -> (po, o + l - po) :: tl
        | _ -> (o, l) :: acc)
      []
      (List.rev !raw)
  in
  List.rev (List.filter (fun (_, l) -> l >= min_len) merged)

let is_hex c =
  match c with '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false

(* The value of a hex digit the pass has already validated. *)
let hex_value c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | _ -> Char.code c - Char.code 'A' + 10

(* The state of one pass over a payload, kept per domain so that
   [extract] resumes where [suspicious] stopped.  The tag ([s], [base],
   [n], [config]) names the view and config it belongs to; [stop < 0]
   means it holds nothing.  Closed %u runs and merged binary regions
   are (start, count) and (start, length) pairs in reused int buffers,
   at most [max_frames] of each: a later one could never become a
   frame. *)
type scratch = {
  mutable busy : bool;
  mutable s : string;
  mutable base : int;
  mutable n : int;
  mutable config : config;
  mutable stop : int;  (* the next offset to read *)
  (* the open %u run: its escapes, and where the next must start (so it
     started at [u_next - 6 * u_count]) *)
  mutable u_count : int;
  mutable u_next : int;
  (* the open merged binary region [bin_start, bin_end); none while
     [bin_end < 0] *)
  mutable bin_start : int;
  mutable bin_end : int;
  mutable runs : int array;
  mutable nruns : int;  (* ints used: two per run *)
  mutable regions : int array;
  mutable nregions : int;
}

let new_scratch () =
  {
    busy = false;
    s = "";
    base = 0;
    n = 0;
    config = default_config;
    stop = -1;
    u_count = 0;
    u_next = -1;
    bin_start = 0;
    bin_end = -1;
    runs = Array.make 8 0;
    nruns = 0;
    regions = Array.make 8 0;
    nregions = 0;
  }

(* Created on a domain's first gate, never ahead of traffic. *)
let scratch_key = Domain.DLS.new_key new_scratch

(* The domain's scratch, or a private one for a pass that starts while
   another holds it (a second thread on the domain). *)
let acquire () =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then new_scratch ()
  else begin
    sc.busy <- true;
    sc
  end

let last_gate_stop () = (Domain.DLS.get scratch_key).stop

(* [a] twice as long, its contents kept. *)
let grow a =
  let b = Array.make (2 * Array.length a) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Records past [max_frames] are dropped; a negative [max_frames] takes
   every frame. *)
let keeps (config : config) k = config.max_frames < 0 || k < 2 * config.max_frames

(* The open %u run of [count] escapes ending where [next] starts, if it
   is long enough. *)
let record_run sc count next =
  let config = sc.config in
  if count > 0 && count >= config.min_unicode_run && keeps config sc.nruns then begin
    let k = sc.nruns in
    if k + 2 > Array.length sc.runs then sc.runs <- grow sc.runs;
    Array.unsafe_set sc.runs k (next - (6 * count));
    Array.unsafe_set sc.runs (k + 1) count;
    sc.nruns <- k + 2
  end

(* The open merged binary region [start, stop), if there is one and it
   is long enough. *)
let record_region sc start stop =
  let config = sc.config in
  if stop >= 0 && stop - start >= config.min_binary_region && keeps config sc.nregions then begin
    let k = sc.nregions in
    if k + 2 > Array.length sc.regions then sc.regions <- grow sc.regions;
    Array.unsafe_set sc.regions k start;
    Array.unsafe_set sc.regions (k + 1) (stop - start);
    sc.nregions <- k + 2
  end

(* Tag [sc] with [payload] and [config], and empty it. *)
let reset sc ~config payload =
  (* pointer stores only when they change: each is a write barrier *)
  if sc.s != Slice.base payload then sc.s <- Slice.base payload;
  sc.base <- Slice.offset payload;
  sc.n <- Slice.length payload;
  if sc.config != config then sc.config <- config;
  sc.stop <- 0;
  sc.u_count <- 0;
  sc.u_next <- -1;
  sc.bin_start <- 0;
  sc.bin_end <- -1;
  sc.nruns <- 0;
  sc.nregions <- 0

(* A %uXXXX escape at [i] of the view [base, base + n) of [s]. *)
let u_escape_at s base n i =
  i + 6 <= n
  && (let u = String.unsafe_get s (base + i + 1) in
      u = 'u' || u = 'U')
  && is_hex (String.unsafe_get s (base + i + 2))
  && is_hex (String.unsafe_get s (base + i + 3))
  && is_hex (String.unsafe_get s (base + i + 4))
  && is_hex (String.unsafe_get s (base + i + 5))

(* The suspicion gate runs on every payload, so it is one left-to-right
   pass over the tagged view that decides the disjunction of the five
   list scanners ([Unicode.unicode_runs], [Repetition.runs],
   [Repetition.sled_like], [Repetition.ret_address_runs],
   [binary_regions]) without building any of their lists, and stops at
   the first indicator.  Each scanner is an existential over positions,
   so per-position state suffices:

   - %u runs: escapes cannot overlap, so an escape continues a run iff
     the previous one sat exactly six bytes earlier;
   - filler runs and sleds: the length of the run ending here;
   - return-address runs: a base (upper 24 bits) at [i] with no three
     equal bytes, repeated by the next dwords — a run found anywhere is
     one the list scanner finds, since it only skips past found runs;
   - binary regions: merged regions only grow, so the region ending
     here is reportable as soon as it spans [min_binary_region].

   As it goes it records each %u run and merged binary region that
   closes, and it leaves where it stopped in [sc] for [extract_pass].
   The repetition scanners honour the frame-size ceiling: structure past
   it could never become (part of) a frame, so an adversarially long
   reassembled stream costs O(max_frame_bytes), not O(stream).  Bytes
   are read from the view's backing string directly: [Slice] accessors
   are never inlined across the library boundary.  For the same reason
   the text and NOP-like tests are one lookup in [classes], not calls to
   [is_text] and [Repetition.nop_like]. *)
let gate_pass sc =
  let s = sc.s and base = sc.base and n = sc.n and config = sc.config in
  let window = min n config.max_frame_bytes in
  let min_run = config.min_unicode_run and min_repeat = config.min_repeat in
  let min_region = config.min_binary_region in
  (* a non-text byte opens a new region when more than [gap] text bytes
     separate it from the open one's end (adjacent bytes never do) *)
  let gap = max 0 config.gap_merge in
  let sled_min = Repetition.default_sled_len in
  let ret_min = Repetition.default_ret_count in
  (* [ret_min] dwords from [i] on, all inside the window, agree on their
     upper 24 bits, which are not one repeated byte.  [ret_min] (4) is
     at least 2, so a run needs the second dword inside the window with
     its byte 1 equal to the first's: the loop's own [k = 1] condition,
     tested first because it fails at almost every position. *)
  let ret_run_at i =
    i + 8 <= window
    &&
    let b1 = String.unsafe_get s (base + i + 1) in
    String.unsafe_get s (base + i + 5) = b1
    &&
    let b2 = String.unsafe_get s (base + i + 2)
    and b3 = String.unsafe_get s (base + i + 3) in
    (b1 <> b2 || b2 <> b3)
    &&
    let k = ref 1 and agree = ref true in
    while !agree && !k < ret_min do
      let j = i + (4 * !k) in
      if
        j + 4 <= window
        && String.unsafe_get s (base + j + 1) = b1
        && String.unsafe_get s (base + j + 2) = b2
        && String.unsafe_get s (base + j + 3) = b3
      then incr k
      else agree := false
    done;
    !agree
  in
  let found = ref false in
  let rep = ref 0 and sled = ref 0 in
  (* escapes in the open %u run, and where the next one must start *)
  let u_count = ref 0 and u_next = ref (-1) in
  (* the open merged binary region [bin_start, bin_end); none while
     [bin_end < 0] *)
  let bin_start = ref 0 and bin_end = ref (-1) in
  let i = ref 0 in
  while (not !found) && !i < n do
    let i' = !i in
    let c = String.unsafe_get s (base + i') in
    let cls = byte_class c in
    if i' < window then begin
      if i' > 0 && c = String.unsafe_get s (base + i' - 1) then incr rep else rep := 1;
      if cls land nop_bit <> 0 then incr sled else sled := 0;
      if !rep >= min_repeat || !sled >= sled_min || ret_run_at i' then found := true
    end;
    if c = '%' && u_escape_at s base n i' then begin
      if i' = !u_next then incr u_count
      else begin
        record_run sc !u_count !u_next;
        u_count := 1
      end;
      u_next := i' + 6;
      if !u_count >= min_run then found := true
    end
    else if cls land text_bit = 0 then begin
      if !bin_end < 0 || i' - !bin_end > gap then begin
        record_region sc !bin_start !bin_end;
        bin_start := i'
      end;
      bin_end := i' + 1;
      if !bin_end - !bin_start >= min_region then found := true
    end;
    incr i
  done;
  sc.stop <- !i;
  sc.u_count <- !u_count;
  sc.u_next <- !u_next;
  sc.bin_start <- !bin_start;
  sc.bin_end <- !bin_end;
  !found

(* The rest of the gate's pass: from where [gate_pass] stopped to the
   end of the payload, the same %u run and binary region tracking with
   the repetition tests left out (they only decide suspicion), then the
   open run and region closed.  It is its own loop because it mostly
   reads binary data, where the text bit is a coin toss: it tracks
   regions without a branch on that bit, which would mispredict at
   every other byte, while the gate mostly reads text and keeps the
   branch. *)
let extract_pass sc =
  let s = sc.s and base = sc.base and n = sc.n in
  let gap = max 0 sc.config.gap_merge in
  let u_count = ref sc.u_count and u_next = ref sc.u_next in
  let bin_start = ref sc.bin_start and bin_end = ref sc.bin_end in
  for i' = sc.stop to n - 1 do
    let c = String.unsafe_get s (base + i') in
    if c = '%' && u_escape_at s base n i' then begin
      if i' = !u_next then incr u_count
      else begin
        record_run sc !u_count !u_next;
        u_count := 1
      end;
      u_next := i' + 6
    end
    else begin
      let nt = 1 - (byte_class c land text_bit) in
      if nt land Bool.to_int (!bin_end < 0 || i' - !bin_end > gap) <> 0 then begin
        record_region sc !bin_start !bin_end;
        bin_start := i'
      end;
      bin_end := !bin_end + (nt * (i' + 1 - !bin_end))
    end
  done;
  record_run sc !u_count !u_next;
  record_region sc !bin_start !bin_end

let suspicious ?(config = default_config) payload =
  let sc = acquire () in
  reset sc ~config payload;
  match gate_pass sc with
  | found ->
      sc.busy <- false;
      found
  | exception e ->
      sc.busy <- false;
      raise e

module Obs = Sanids_obs

(* Per-origin frame accounting when a registry is supplied. *)
let record_frames reg frames =
  let bump name help n =
    if n > 0 then Obs.Registry.add (Obs.Registry.counter reg ~help name) n
  in
  let unicode, raw, bytes =
    List.fold_left
      (fun (u, r, b) f ->
        match f.origin with
        | Unicode_escape -> (u + 1, r, b + Slice.length f.data)
        | Raw_binary -> (u, r + 1, b + Slice.length f.data))
      (0, 0, 0) frames
  in
  bump "sanids_extract_unicode_frames_total"
    "frames recovered from %uXXXX escape runs" unicode;
  bump "sanids_extract_raw_frames_total"
    "frames cut from raw binary regions" raw;
  bump "sanids_extract_bytes_total" "bytes across all extracted frames" bytes

(* Decoded bytes of a %u run of [count] escapes under the frame-size
   cap: two per escape while fewer than [cap] are out, as
   [Unicode.unicode_runs ~max_decoded:cap] emits them. *)
let decoded_len ~cap count =
  if cap <= 0 then 0 else if 2 * count <= cap then 2 * count else cap + (cap land 1)

(* A %u frame, decoded straight from the escapes the pass validated. *)
let unicode_frame ~(config : config) payload start count =
  let s = Slice.base payload and p0 = Slice.offset payload + start in
  let b = Bytes.create (decoded_len ~cap:config.max_frame_bytes count) in
  for k = 0 to (Bytes.length b / 2) - 1 do
    let p = p0 + (6 * k) in
    let v =
      (hex_value (String.unsafe_get s (p + 2)) lsl 12)
      lor (hex_value (String.unsafe_get s (p + 3)) lsl 8)
      lor (hex_value (String.unsafe_get s (p + 4)) lsl 4)
      lor hex_value (String.unsafe_get s (p + 5))
    in
    Bytes.unsafe_set b (2 * k) (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set b ((2 * k) + 1) (Char.unsafe_chr (v lsr 8))
  done;
  { off = start; data = Slice.of_string (Bytes.unsafe_to_string b); origin = Unicode_escape }

(* A raw frame around a binary region: a re-view of the payload, not a
   copy. *)
let raw_frame ~(config : config) payload o l =
  let start = max 0 (o - config.context_before) in
  let stop = min (Slice.length payload) (o + l + config.context_after) in
  let stop = min stop (start + config.max_frame_bytes) in
  { off = start; data = Slice.sub payload ~off:start ~len:(stop - start); origin = Raw_binary }

(* The extraction phase, resumed where the gate stopped when [sc] holds
   the gate's state for this very view and config, else run over the
   whole payload; then frames in payload order from the records.  Both
   record lists are sorted, and so are the frames cut from them, so the
   order is a merge that puts a %u frame first on a tie.  Each frame's
   bytes are taken from the budget before it is emitted: the frame that
   exhausts the fuel and everything after it are dropped, while
   everything materialized so far is still analyzed. *)
let extract_frames sc ?budget ~config payload =
  if
    not
      (sc.stop >= 0
      && sc.s == Slice.base payload
      && sc.base = Slice.offset payload
      && sc.n = Slice.length payload
      && sc.config == config)
  then reset sc ~config payload;
  extract_pass sc;
  (* consumed: a later [extract] of the same view runs whole, and the
     scratch no longer pins the payload's backing string *)
  sc.stop <- -1;
  sc.s <- "";
  let runs = sc.runs and nruns = sc.nruns in
  let regions = sc.regions and nregions = sc.nregions in
  let admit f =
    match budget with None -> true | Some b -> Budget.take_bytes b (Slice.length f.data)
  in
  let rec take k ui ri =
    if k = 0 || (ui >= nruns && ri >= nregions) then []
    else if
      ui < nruns
      && (ri >= nregions || runs.(ui) <= max 0 (regions.(ri) - config.context_before))
    then
      let f = unicode_frame ~config payload runs.(ui) runs.(ui + 1) in
      if admit f then f :: take (k - 1) (ui + 2) ri else []
    else
      let f = raw_frame ~config payload regions.(ri) regions.(ri + 1) in
      if admit f then f :: take (k - 1) ui (ri + 2) else []
  in
  take config.max_frames 0 0

let extract ?budget ?metrics ?(config = default_config) payload =
  let sc = acquire () in
  match extract_frames sc ?budget ~config payload with
  | frames ->
      sc.busy <- false;
      (match metrics with None -> () | Some reg -> record_frames reg frames);
      frames
  | exception e ->
      sc.busy <- false;
      raise e
