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

(* The suspicion gate runs on every payload, so it is one left-to-right
   pass that decides the disjunction of the five list scanners below
   ([Unicode.unicode_runs], [Repetition.runs], [Repetition.sled_like],
   [Repetition.ret_address_runs], [binary_regions]) without building
   any of their lists, and stops at the first indicator.  Each scanner
   is an existential over positions, so per-position state suffices:

   - %u runs: escapes cannot overlap, so an escape continues a run iff
     the previous one sat exactly six bytes earlier;
   - filler runs and sleds: the length of the run ending here;
   - return-address runs: a base (upper 24 bits) at [i] with no three
     equal bytes, repeated by the next dwords — a run found anywhere is
     one the list scanner finds, since it only skips past found runs;
   - binary regions: merged regions only grow, so the region ending
     here is reportable as soon as it spans [min_binary_region].

   The repetition scanners honour the frame-size ceiling: structure past
   it could never become (part of) a frame, so an adversarially long
   reassembled stream costs O(max_frame_bytes), not O(stream).  Bytes
   are read from the view's backing string directly: [Slice] accessors
   are never inlined across the library boundary.  For the same reason
   the text and NOP-like tests are one lookup in [classes], not calls to
   [is_text] and [Repetition.nop_like]. *)
let suspicious ?(config = default_config) payload =
  let s = Slice.base payload and base = Slice.offset payload in
  let n = Slice.length payload in
  let window = min n config.max_frame_bytes in
  let min_run = config.min_unicode_run and min_repeat = config.min_repeat in
  let min_region = config.min_binary_region and gap_merge = config.gap_merge in
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
  let u_escape_at i =
    i + 6 <= n
    && (let u = String.unsafe_get s (base + i + 1) in
        u = 'u' || u = 'U')
    && is_hex (String.unsafe_get s (base + i + 2))
    && is_hex (String.unsafe_get s (base + i + 3))
    && is_hex (String.unsafe_get s (base + i + 4))
    && is_hex (String.unsafe_get s (base + i + 5))
  in
  let found = ref false in
  let rep = ref 0 and sled = ref 0 in
  (* escapes in the current %u run, and where the next one must start *)
  let u_count = ref 0 and u_next = ref (-1) in
  (* current merged binary region [bin_start, bin_end); none while
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
    if c = '%' && u_escape_at i' then begin
      if i' = !u_next then incr u_count else u_count := 1;
      u_next := i' + 6;
      if !u_count >= min_run then found := true
    end
    else if cls land text_bit = 0 then begin
      if !bin_end < 0 || (i' > !bin_end && i' - !bin_end > gap_merge) then
        bin_start := i';
      bin_end := i' + 1;
      if !bin_end - !bin_start >= min_region then found := true
    end;
    incr i
  done;
  !found

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

let extract_frames ?budget ~config payload =
  let n = Slice.length payload in
  let unicode_frames =
    List.map
      (fun (r : Unicode.run) ->
        {
          off = r.Unicode.off;
          data = Slice.of_string r.Unicode.decoded;
          origin = Unicode_escape;
        })
      (Unicode.unicode_runs ~min_run:config.min_unicode_run
         ~max_decoded:config.max_frame_bytes payload)
  in
  let raw_frames =
    List.map
      (fun (o, l) ->
        let start = max 0 (o - config.context_before) in
        let stop = min n (o + l + config.context_after) in
        let stop = min stop (start + config.max_frame_bytes) in
        (* a raw frame is a re-view of the payload, not a copy *)
        {
          off = start;
          data = Slice.sub payload ~off:start ~len:(stop - start);
          origin = Raw_binary;
        })
      (binary_regions ~min_len:config.min_binary_region ~gap_merge:config.gap_merge
         payload)
  in
  let all =
    List.sort (fun a b -> compare a.off b.off) (unicode_frames @ raw_frames)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | f :: tl -> (
        match budget with
        | Some b when not (Budget.take_bytes b (Slice.length f.data)) ->
            (* out of extraction fuel: everything materialized so far is
               still analyzed, the rest of the payload is not *)
            []
        | Some _ | None -> f :: take (k - 1) tl)
  in
  take config.max_frames all

let extract ?budget ?metrics ?(config = default_config) payload =
  let frames = extract_frames ?budget ~config payload in
  (match metrics with None -> () | Some reg -> record_frames reg frames);
  frames
