(* Tests for unicode decoding, repetition and the binary frame
   extractor (paper §4.2). *)

open Sanids_extract

let test_unicode_single_escape () =
  match Unicode.decode_u_escape (Slice.of_string "%u9090") 0 with
  | Some (v, next) ->
      Alcotest.(check int) "value" 0x9090 v;
      Alcotest.(check int) "next" 6 next
  | None -> Alcotest.fail "must decode"

let test_unicode_run_decoding () =
  (* the Code Red II idiom: little-endian pairs *)
  let s = Slice.of_string "AAAA%u6858%ucbd3%u7801%u9090BBBB" in
  match Unicode.unicode_runs ~min_run:4 s with
  | [ r ] ->
      Alcotest.(check int) "offset" 4 r.Unicode.off;
      Alcotest.(check int) "count" 4 r.Unicode.count;
      Alcotest.(check string) "bytes" "\x58\x68\xd3\xcb\x01\x78\x90\x90" r.Unicode.decoded
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_unicode_short_run_ignored () =
  Alcotest.(check int) "below min_run" 0
    (List.length (Unicode.unicode_runs ~min_run:4 (Slice.of_string "x%u1234%u5678x")))

let test_unicode_malformed () =
  Alcotest.(check int) "bad digits" 0
    (List.length (Unicode.unicode_runs (Slice.of_string "%uZZZZ%u12")))

let test_unicode_decoded_cap () =
  (* a %u bomb: the whole run is counted, but only [max_decoded] bytes of
     it are materialized *)
  let bomb = String.concat "" (List.init 1000 (fun _ -> "%u4141")) in
  match Unicode.unicode_runs ~max_decoded:16 (Slice.of_string ("x" ^ bomb ^ "y")) with
  | [ r ] ->
      Alcotest.(check int) "offset" 1 r.Unicode.off;
      Alcotest.(check int) "every escape counted" 1000 r.Unicode.count;
      Alcotest.(check string) "decoded bytes capped" (String.make 16 'A') r.Unicode.decoded
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_unicode_case_insensitive () =
  (* IIS accepts %U and either hex case *)
  match Unicode.unicode_runs (Slice.of_string "%UABCD%uabcd%uAbCd%U00fF") with
  | [ r ] ->
      Alcotest.(check int) "count" 4 r.Unicode.count;
      Alcotest.(check string) "bytes" "\xcd\xab\xcd\xab\xcd\xab\xff\x00" r.Unicode.decoded
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_unicode_split_runs () =
  (* one byte between escapes ends a run; each side is its own run *)
  let four = "%u9090%u9090%u9090%u9090" in
  match Unicode.unicode_runs (Slice.of_string (four ^ "/" ^ four)) with
  | [ a; b ] ->
      Alcotest.(check int) "first offset" 0 a.Unicode.off;
      Alcotest.(check int) "second offset" 25 b.Unicode.off;
      Alcotest.(check int) "second count" 4 b.Unicode.count
  | other -> Alcotest.failf "expected two runs, got %d" (List.length other)

(* ------------------------------------------------------------------ *)

let test_repetition_runs () =
  let s = Slice.of_string ("ab" ^ String.make 40 'X' ^ "cd" ^ String.make 10 'Y') in
  match Repetition.runs ~min_len:32 s with
  | [ r ] ->
      Alcotest.(check int) "offset" 2 r.Repetition.off;
      Alcotest.(check char) "byte" 'X' r.Repetition.byte;
      Alcotest.(check int) "len" 40 r.Repetition.len
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_repetition_scan_window () =
  let s = Slice.of_string (String.make 40 'a' ^ "b" ^ String.make 40 'X') in
  (* a run past the window is not seen; one crossing it is cut at it *)
  (match Repetition.runs ~min_len:32 ~max_scan:41 s with
  | [ r ] ->
      Alcotest.(check char) "byte" 'a' r.Repetition.byte;
      Alcotest.(check int) "len" 40 r.Repetition.len
  | other -> Alcotest.failf "expected one run, got %d" (List.length other));
  Alcotest.(check int) "cut below min_len" 1
    (List.length (Repetition.runs ~min_len:32 ~max_scan:60 s));
  Alcotest.(check int) "unbounded" 2 (List.length (Repetition.runs ~min_len:32 s))

let test_nop_like_class () =
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "0x%02x is NOP-like" b) true
        (Repetition.nop_like (Char.chr b)))
    [ 0x90; 0x40; 0x4F; 0x50; 0x57; 0x91; 0x97; 0x98; 0x99; 0xF5; 0xF8; 0xF9; 0xFC; 0x9B; 0x9E; 0x9F ];
  List.iter
    (fun b ->
      Alcotest.(check bool) (Printf.sprintf "0x%02x is not NOP-like" b) false
        (Repetition.nop_like (Char.chr b)))
    (* pop, int3, jmp short, call, int, nul, space *)
    [ 0x58; 0xCC; 0xEB; 0xE8; 0xCD; 0x00; 0x20 ]

let test_sled_threshold () =
  let sled n = Slice.of_string ("\x00" ^ String.make n '\x90' ^ "\x00") in
  Alcotest.(check int) "one below the default length" 0
    (List.length (Repetition.sled_like (sled (Repetition.default_sled_len - 1))));
  match Repetition.sled_like (sled Repetition.default_sled_len) with
  | [ r ] ->
      Alcotest.(check int) "offset" 1 r.Repetition.off;
      Alcotest.(check int) "len" Repetition.default_sled_len r.Repetition.len
  | other -> Alcotest.failf "expected one sled, got %d" (List.length other)

let test_sled_like_polymorphic () =
  (* a polymorphic sled has differing bytes, all NOP-like *)
  let rng = Sanids_util.Rng.create 7L in
  let sled = Sanids_polymorph.Nops.sled_bytes rng 64 in
  match Repetition.sled_like ~min_len:32 (Slice.of_string ("text" ^ sled ^ "text")) with
  | [ r ] -> Alcotest.(check int) "length" 64 r.Repetition.len
  | other -> Alcotest.failf "expected one sled, got %d" (List.length other)

let test_ret_address_runs () =
  (* an exploit's return-address region: one address, LSB jittered *)
  let rng = Sanids_util.Rng.create 12L in
  let region =
    Sanids_exploits.Exploit_gen.raw_overflow rng
      ~shellcode:(Sanids_exploits.Shellcodes.find "classic").Sanids_exploits.Shellcodes.code
  in
  (match Repetition.ret_address_runs (Slice.of_string region) with
  | r :: _ ->
      Alcotest.(check int32) "base is the jittered address" 0xBFFFF200l
        (Int32.logand r.Repetition.base 0xFFFFFF00l);
      Alcotest.(check bool) "full region found" true (r.Repetition.count >= 8)
  | [] -> Alcotest.fail "expected a return-address run");
  (* uniform text must not look like a return region *)
  Alcotest.(check int) "text run rejected" 0
    (List.length (Repetition.ret_address_runs (Slice.of_string (String.make 64 'a'))));
  (* and below the count threshold nothing fires *)
  let w = Sanids_util.Byte_io.Writer.create () in
  for _ = 1 to 3 do
    Sanids_util.Byte_io.Writer.u32_le w 0xBFFFF210l
  done;
  Alcotest.(check int) "short run rejected" 0
    (List.length
       (Repetition.ret_address_runs
          (Slice.of_string (Sanids_util.Byte_io.Writer.contents w))))

(* ------------------------------------------------------------------ *)

let benign_get = "GET /a/b.html HTTP/1.1\r\nHost: x\r\nUser-Agent: test\r\n\r\n"

let test_extract_benign_empty () =
  let s = Slice.of_string benign_get in
  Alcotest.(check int) "no frames" 0 (List.length (Extractor.extract s));
  Alcotest.(check bool) "not suspicious" false (Extractor.suspicious s)

let test_extract_code_red () =
  let req = Slice.of_string (Sanids_exploits.Code_red.request ()) in
  Alcotest.(check bool) "suspicious" true (Extractor.suspicious req);
  let frames = Extractor.extract req in
  let unicode =
    List.filter (fun f -> f.Extractor.origin = Extractor.Unicode_escape) frames
  in
  Alcotest.(check bool) "has unicode frame" true (unicode <> []);
  (* the decoded frame contains the push of the IIS constant *)
  let has_const =
    List.exists
      (fun f ->
        let ds = Sanids_x86.Decode.all (Slice.to_string f.Extractor.data) in
        Array.exists
          (fun (d : Sanids_x86.Decode.decoded) ->
            match d.Sanids_x86.Decode.insn with
            | Sanids_x86.Insn.Push_imm 0x7801cbd3l -> true
            | _ -> false)
          ds)
      unicode
  in
  Alcotest.(check bool) "decoded push const" true has_const

let test_extract_raw_binary_with_context () =
  let payload = benign_get ^ String.make 100 'A' ^ Sanids_util.Rng.bytes (Sanids_util.Rng.create 9L) 80 in
  let frames = Extractor.extract (Slice.of_string payload) in
  match frames with
  | [ f ] ->
      Alcotest.(check bool) "origin raw" true (f.Extractor.origin = Extractor.Raw_binary);
      (* context must reach back into the printable filler *)
      Alcotest.(check bool) "context included" true
        (f.Extractor.off < String.length benign_get + 100)
  | other -> Alcotest.failf "expected one frame, got %d" (List.length other)

let test_extract_gap_merge () =
  (* two binary chunks separated by a few text bytes merge into one frame *)
  let rng = Sanids_util.Rng.create 11L in
  let bin n = String.concat "" (List.init n (fun _ -> "\x01\xfe")) in
  ignore rng;
  let payload = "head" ^ bin 20 ^ "gap-text" ^ bin 20 ^ "tail" in
  Alcotest.(check int) "merged" 1
    (List.length (Extractor.extract (Slice.of_string payload)))

let test_extract_max_frames () =
  let cfg = { Extractor.default_config with Extractor.max_frames = 2; gap_merge = 0; context_before = 0; context_after = 0 } in
  let chunk = String.make 30 '\x01' in
  let payload =
    String.concat (String.make 64 'a') [ chunk; chunk; chunk; chunk ]
  in
  Alcotest.(check int) "capped" 2
    (List.length (Extractor.extract ~config:cfg (Slice.of_string payload)))

let prop_extract_never_raises =
  QCheck2.Test.make ~name:"extractor total on arbitrary bytes" ~count:500
    QCheck2.Gen.(string_size (int_bound 2000))
    (fun s ->
      let frames = Extractor.extract (Slice.of_string s) in
      List.for_all
        (fun f ->
          f.Extractor.off >= 0
          && f.Extractor.off <= String.length s
          && Slice.length f.Extractor.data > 0)
        frames
      || frames = [])

let prop_suspicious_monotone_unicode =
  QCheck2.Test.make ~name:"appending a unicode run makes payload suspicious" ~count:100
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0x61 0x7a)) (int_bound 200))
    (fun s ->
      Extractor.suspicious (Slice.of_string (s ^ "%u9090%u9090%u9090%u9090%u9090")))

(* The single-pass gate against its oracle: the disjunction of the five
   list scanners it replaces, each non-empty.  Payloads are text with
   structures spliced in at each threshold (one below, at, one above):
   %u runs around [min_unicode_run], filler runs around [min_repeat],
   NOP-class sleds around 16, return-address dwords around 4, non-text
   regions around [min_binary_region] and gaps around [gap_merge], plus
   a [max_frame_bytes] cut drawn anywhere in the payload.  The payload
   is a view at an offset inside a larger string, so the gate's direct
   reads of the backing string are exercised too. *)
let scanners_oracle ~(config : Extractor.config) p =
  let max_scan = config.Extractor.max_frame_bytes in
  Unicode.unicode_runs ~min_run:config.Extractor.min_unicode_run ~max_decoded:0 p <> []
  || Repetition.runs ~min_len:config.Extractor.min_repeat ~max_scan p <> []
  || Repetition.sled_like ~max_scan p <> []
  || Repetition.ret_address_runs ~max_scan p <> []
  || Extractor.binary_regions ~min_len:config.Extractor.min_binary_region
       ~gap_merge:config.Extractor.gap_merge p
     <> []

(* Return-address dwords around [default_ret_count] of them. *)
let gen_ret_run =
  let open QCheck2.Gen in
  let* k = int_range (Repetition.default_ret_count - 1) (Repetition.default_ret_count + 1) in
  let byte = map Char.chr (int_bound 255) in
  (* address-like upper bytes, one repeated byte, and the near miss *)
  let* upper =
    oneof
      [
        list_repeat 3 byte;
        map (fun c -> [ c; c; c ]) byte;
        map2 (fun c c' -> [ c; c; c' ]) byte byte;
      ]
  in
  let* lsbs = list_repeat k byte in
  return
    (String.concat ""
       (List.map (fun l -> String.init 4 (fun j -> if j = 0 then l else List.nth upper (j - 1))) lsbs))

let gen_threshold_piece =
  let open QCheck2.Gen in
  let around k = int_range (k - 1) (k + 1) in
  let d = Extractor.default_config in
  let text n = string_size ~gen:(map Char.chr (int_range 0x20 0x7e)) n in
  let nop_bytes = [ '\x90'; '\x41'; '\x4f'; '\x50'; '\x97'; '\x99'; '\xfc'; '\x9f' ] in
  oneof
    [
      text (int_bound 24);
      (let* k = around d.Extractor.min_unicode_run in
       let* hex = oneofl [ "9090"; "ABcd"; "7801"; "cbd3" ] in
       let* u = oneofl [ "%u"; "%U" ] in
       return (String.concat "" (List.init k (fun _ -> u ^ hex))));
      oneofl [ "%u90"; "%u90g0"; "%"; "%%u1234"; "%u12345" ];
      (let* k = around d.Extractor.min_repeat in
       let* c = oneofl [ 'A'; 'X'; '\x90'; '\x00'; ' ' ] in
       return (String.make k c));
      (let* k = around Repetition.default_sled_len in
       let* bytes = list_repeat k (oneofl nop_bytes) in
       return (String.init k (List.nth bytes)));
      gen_ret_run;
      (let* k = around d.Extractor.min_binary_region in
       string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (return k));
      string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (int_range 1 12);
      text (around d.Extractor.gap_merge);
    ]

(* Pieces with the cut anywhere, or a return-address run placed so that
   it ends at the cut or one byte past it: the window bound of the
   gate's run test. *)
let gen_gate_case =
  let open QCheck2.Gen in
  let pieces lo hi = map (String.concat "") (list_size (int_range lo hi) gen_threshold_piece) in
  let* payload, cut =
    oneof
      [
        (let* payload = pieces 1 6 in
         let n = String.length payload in
         let* cut =
           oneof [ return Extractor.default_config.Extractor.max_frame_bytes; int_bound (n + 1) ]
         in
         return (payload, cut));
        (let* before = pieces 0 3 in
         let* run = gen_ret_run in
         let* after = pieces 0 2 in
         let* past = int_bound 1 in
         return (before ^ run ^ after, String.length before + String.length run - past));
      ]
  in
  let* pre = string_size (int_bound 8) in
  let* post = string_size (int_bound 8) in
  return (payload, cut, pre, post)

let prop_gate_equals_scanners =
  QCheck2.Test.make ~name:"suspicious = disjunction of the list scanners" ~count:3000
    ~print:(fun (p, cut, pre, post) ->
      Printf.sprintf "payload=%S cut=%d pre=%S post=%S" p cut pre post)
    gen_gate_case
    (fun (payload, cut, pre, post) ->
      let config = { Extractor.default_config with Extractor.max_frame_bytes = cut } in
      let view =
        Slice.sub
          (Slice.of_string (pre ^ payload ^ post))
          ~off:(String.length pre) ~len:(String.length payload)
      in
      Extractor.suspicious ~config view = scanners_oracle ~config view)

(* Arbitrary small thresholds, over bytes drawn from the alphabet the
   predicates care about. *)
let gen_any_config_case =
  let open QCheck2.Gen in
  let alphabet =
    oneof
      [
        oneofl [ '%'; 'u'; 'U'; '0'; '9'; 'a'; 'F'; 'g'; ' '; 'A'; '\x90'; '\x41'; '\x00'; '\xcb' ];
        map Char.chr (int_bound 255);
      ]
  in
  let* payload = string_size ~gen:alphabet (int_bound 120) in
  let* min_unicode_run = int_range 0 5 in
  let* min_repeat = int_range 0 6 in
  let* min_binary_region = int_range 0 8 in
  let* gap_merge = int_range (-2) 6 in
  let* max_frame_bytes = int_bound 130 in
  return
    ( payload,
      {
        Extractor.default_config with
        Extractor.min_unicode_run;
        min_repeat;
        min_binary_region;
        gap_merge;
        max_frame_bytes;
      } )

(* The same equivalence under those thresholds. *)
let prop_gate_equals_scanners_any_config =
  QCheck2.Test.make ~name:"suspicious = scanners under any thresholds" ~count:3000
    ~print:(fun (p, (c : Extractor.config)) ->
      Printf.sprintf "payload=%S u=%d rep=%d bin=%d gap=%d max=%d" p
        c.Extractor.min_unicode_run c.Extractor.min_repeat c.Extractor.min_binary_region
        c.Extractor.gap_merge c.Extractor.max_frame_bytes)
    gen_any_config_case
    (fun (payload, config) ->
      let p = Slice.of_string payload in
      Extractor.suspicious ~config p = scanners_oracle ~config p)

(* Today's frame assembly, kept as the resumable pass's reference:
   frames cut from the list scanners ([Unicode.unicode_runs] decoded
   under the frame-size cap, and [Extractor.binary_regions] with
   context), stably sorted by offset so a %u frame comes first on a
   tie, and taken up to [max_frames] while the byte budget lasts. *)
let reference_frames ?budget ~(config : Extractor.config) payload =
  let n = Slice.length payload in
  let unicode_frames =
    List.map
      (fun (r : Unicode.run) ->
        {
          Extractor.off = r.Unicode.off;
          data = Slice.of_string r.Unicode.decoded;
          origin = Extractor.Unicode_escape;
        })
      (Unicode.unicode_runs ~min_run:config.Extractor.min_unicode_run
         ~max_decoded:config.Extractor.max_frame_bytes payload)
  in
  let raw_frames =
    List.map
      (fun (o, l) ->
        let start = max 0 (o - config.Extractor.context_before) in
        let stop = min n (o + l + config.Extractor.context_after) in
        let stop = min stop (start + config.Extractor.max_frame_bytes) in
        {
          Extractor.off = start;
          data = Slice.sub payload ~off:start ~len:(stop - start);
          origin = Extractor.Raw_binary;
        })
      (Extractor.binary_regions ~min_len:config.Extractor.min_binary_region
         ~gap_merge:config.Extractor.gap_merge payload)
  in
  let all =
    List.sort
      (fun (a : Extractor.frame) (b : Extractor.frame) -> compare a.Extractor.off b.Extractor.off)
      (unicode_frames @ raw_frames)
  in
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | (f : Extractor.frame) :: tl -> (
        match budget with
        | Some b when not (Budget.take_bytes b (Slice.length f.Extractor.data)) -> []
        | Some _ | None -> f :: take (k - 1) tl)
  in
  take config.Extractor.max_frames all

(* A frame as what the matcher sees of it. *)
let frame_view (f : Extractor.frame) =
  ( f.Extractor.off,
    (match f.Extractor.origin with Extractor.Unicode_escape -> "unicode" | Raw_binary -> "raw"),
    Slice.to_string f.Extractor.data )

let frame_views frames = List.map frame_view frames

let check_frames name expect frames =
  Alcotest.(check (list (triple int string string))) name (frame_views expect) (frame_views frames)

(* Two %u runs of 3 to 5 escapes each, adjacent (so one run) or apart. *)
let gen_u_pair =
  let open QCheck2.Gen in
  let run =
    let d = Extractor.default_config.Extractor.min_unicode_run in
    let* k = int_range (d - 1) (d + 1) in
    let* hex = oneofl [ "9090"; "ABcd"; "7801"; "cbd3" ] in
    return (String.concat "" (List.init k (fun _ -> "%u" ^ hex)))
  in
  let* a = run in
  let* b = run in
  let* sep = oneofl [ ""; "x"; "%u12" ] in
  return (a ^ sep ^ b)

(* Longer payloads than the gate's cases, so that most carry structure
   after the first indicator: the pieces of [gen_threshold_piece] and
   [gen_u_pair], with [max_frame_bytes] the default, a cut anywhere in
   the payload or a small cap, or a return-address run ending at the
   cut or one byte past it; [max_frames] the default or 1 to 3; and
   optionally a byte budget small enough to trip. *)
let gen_resume_case =
  let open QCheck2.Gen in
  let piece = oneof [ gen_threshold_piece; gen_threshold_piece; gen_u_pair ] in
  let pieces lo hi = map (String.concat "") (list_size (int_range lo hi) piece) in
  let* payload, cut =
    oneof
      [
        (let* payload = pieces 1 10 in
         let n = String.length payload in
         let* cut =
           oneof
             [
               return Extractor.default_config.Extractor.max_frame_bytes;
               int_bound (n + 1);
               int_range 1 64;
             ]
         in
         return (payload, cut));
        (let* before = pieces 0 4 in
         let* run = gen_ret_run in
         let* after = pieces 1 6 in
         let* past = int_bound 1 in
         return (before ^ run ^ after, String.length before + String.length run - past));
      ]
  in
  let* max_frames = oneofl [ Extractor.default_config.Extractor.max_frames; 1; 2; 3 ] in
  let* bytes = opt (int_range 1 400) in
  let* pre = string_size (int_bound 8) in
  let* post = string_size (int_bound 8) in
  return (payload, cut, max_frames, bytes, pre, post)

(* The gate's verdict and then [extract]'s frames, against the list
   scanners' disjunction and [reference_frames], under one byte budget
   of [bytes] each when given (fuel spent compared too).  [on_gate] runs
   between the gate and the extraction. *)
let resume_agrees ~config ?bytes ?(on_gate = ignore) view =
  let budget () =
    Option.map (fun b -> Budget.start { Budget.unlimited with Budget.max_bytes = b }) bytes
  in
  let gate = Extractor.suspicious ~config view in
  on_gate ();
  let b = budget () and b' = budget () in
  let frames = Extractor.extract ?budget:b ~config view in
  let expect = reference_frames ?budget:b' ~config view in
  gate = scanners_oracle ~config view
  && frame_views frames = frame_views expect
  && Option.map Budget.spent b = Option.map Budget.spent b'

(* How many cases the resume property drew, and in how many the gate
   stopped before the payload's last byte (so extraction resumed). *)
let resume_cases = ref 0
let resume_early = ref 0

let prop_resume_equals_reference =
  QCheck2.Test.make ~name:"gate, then extract ≡ gate, then frames from the list scanners"
    ~count:3000
    ~print:(fun (p, cut, max_frames, bytes, pre, post) ->
      Printf.sprintf "payload=%S max_frame_bytes=%d max_frames=%d budget=%s pre=%S post=%S" p
        cut max_frames
        (match bytes with None -> "none" | Some b -> string_of_int b)
        pre post)
    gen_resume_case
    (fun (payload, cut, max_frames, bytes, pre, post) ->
      let config =
        { Extractor.default_config with Extractor.max_frame_bytes = cut; max_frames }
      in
      let view =
        Slice.sub
          (Slice.of_string (pre ^ payload ^ post))
          ~off:(String.length pre) ~len:(String.length payload)
      in
      resume_agrees ~config ?bytes view ~on_gate:(fun () ->
          incr resume_cases;
          if Extractor.last_gate_stop () < String.length payload then incr resume_early))

(* The property, then a check that the resume path carried at least a
   third of its cases. *)
let test_resume_oracle =
  let name, speed, run = QCheck_alcotest.to_alcotest prop_resume_equals_reference in
  ( name,
    speed,
    fun () ->
      resume_cases := 0;
      resume_early := 0;
      run ();
      Printf.printf "the gate stopped before the last byte in %d of %d cases\n" !resume_early
        !resume_cases;
      if 3 * !resume_early < !resume_cases then
        Alcotest.failf "the gate stopped early in %d of %d cases, fewer than a third"
          !resume_early !resume_cases )

(* The same under arbitrary small thresholds, context, frame caps and
   frame counts, over the gate's threshold alphabet: regions merged
   across gaps of any width (a negative [gap_merge] merges none), runs
   and regions of any minimum, frames cut to a few bytes. *)
let prop_resume_any_config =
  let open QCheck2.Gen in
  let gen =
    let* payload, (config : Extractor.config) = gen_any_config_case in
    let* context_before = int_bound 12 in
    let* context_after = int_bound 12 in
    let* max_frames = int_range (-1) 4 in
    let* bytes = opt (int_range 1 60) in
    return (payload, { config with Extractor.context_before; context_after; max_frames }, bytes)
  in
  QCheck2.Test.make ~name:"gate, then extract ≡ reference under any thresholds" ~count:3000
    ~print:(fun (p, (c : Extractor.config), bytes) ->
      Printf.sprintf
        "payload=%S u=%d rep=%d bin=%d gap=%d before=%d after=%d frames=%d max=%d budget=%s" p
        c.Extractor.min_unicode_run c.Extractor.min_repeat c.Extractor.min_binary_region
        c.Extractor.gap_merge c.Extractor.context_before c.Extractor.context_after
        c.Extractor.max_frames c.Extractor.max_frame_bytes
        (match bytes with None -> "none" | Some b -> string_of_int b))
    gen
    (fun (payload, config, bytes) -> resume_agrees ~config ?bytes (Slice.of_string payload))

(* Stale gate state: extraction resumes only for the view and config
   the gate ran on; anything else reads the whole payload.  Each case
   gives the frames [extract] gives alone. *)
let code_red = Slice.of_string (Sanids_exploits.Code_red.request ())

let binary_upload seed =
  let binary = { Sanids_workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  Slice.of_string
    (Sanids_workload.Benign_gen.payload ~mix:binary (Sanids_util.Rng.create seed))

let test_stale_other_payload () =
  let a = code_red in
  (* another backing string, of A's length, at A's offset *)
  let b =
    let u = Slice.to_string (binary_upload 7L) and n = Slice.length a in
    Slice.of_string
      (if String.length u >= n then String.sub u 0 n else u ^ String.make (n - String.length u) 'x')
  in
  let alone = Extractor.extract a in
  check_frames "alone ≡ reference" (reference_frames ~config:Extractor.default_config a) alone;
  Alcotest.(check bool) "A passes" true (Extractor.suspicious a);
  Alcotest.(check bool) "B passes" true (Extractor.suspicious b);
  check_frames "gate A, gate B, extract A" alone (Extractor.extract a)

let test_stale_other_view () =
  let rng = Sanids_util.Rng.create 5L in
  let head =
    benign_get ^ Sanids_util.Rng.bytes rng 40 ^ String.make 30 'a' ^ "%u9090%u9090%u9090%u9090"
  in
  let base = Slice.of_string (head ^ Sanids_util.Rng.bytes rng 60 ^ benign_get) in
  let len = Slice.length base - 30 in
  let v = Slice.sub base ~off:20 ~len in
  let alone = Extractor.extract v in
  Alcotest.(check bool) "frames" true (alone <> []);
  let gate_then_extract name other =
    Alcotest.(check bool) (name ^ " passes") true (Extractor.suspicious other);
    check_frames ("gate " ^ name ^ ", extract the view") alone (Extractor.extract v)
  in
  (* the view's length at another offset; the view's offset, cut inside
     the binary bytes after the %u run; the whole string *)
  gate_then_extract "an earlier view" (Slice.sub base ~off:10 ~len);
  gate_then_extract "a shorter view" (Slice.sub base ~off:20 ~len:(String.length head + 30 - 20));
  gate_then_extract "the whole string" base

let test_stale_other_config () =
  let config = { Extractor.default_config with Extractor.min_binary_region = 8; context_before = 0 } in
  (* a 12-byte region only [config] keeps, then one both keep *)
  let p =
    Slice.of_string
      (benign_get ^ String.make 12 '\xfe' ^ benign_get ^ String.make 30 '\xcc' ^ benign_get)
  in
  let alone = Extractor.extract ~config p in
  Alcotest.(check int) "two frames alone" 2 (List.length alone);
  Alcotest.(check bool) "default gate passes" true (Extractor.suspicious p);
  check_frames "default gate, extract ~config" alone (Extractor.extract ~config p);
  (* a structurally equal config is another config: no resume, same frames *)
  Alcotest.(check bool) "gate ~config passes" true (Extractor.suspicious ~config p);
  check_frames "gate ~config, extract ~{config}" alone
    (Extractor.extract ~config:{ config with Extractor.max_frames = config.Extractor.max_frames } p)

(* Gate and extract on two domains at once, each pair on one view, and
   a gate followed by the next payload's extract: every call on either
   domain gives the reference frames, as on one domain. *)
let test_stale_two_domains () =
  let corpus =
    Array.of_list
      (code_red
      :: List.init 60 (fun i -> binary_upload (Int64.of_int (100 + i)))
      @ List.init 20 (fun i ->
            Slice.of_string
              (String.concat ""
                 (QCheck2.Gen.generate ~n:6 ~rand:(Random.State.make [| i |]) gen_threshold_piece))))
  in
  let k = Array.length corpus in
  let run () =
    Array.mapi
      (fun i p ->
        let q = corpus.((i + 1) mod k) in
        ignore (Extractor.suspicious p);
        let same = frame_views (Extractor.extract p) in
        ignore (Extractor.suspicious p);
        let next = frame_views (Extractor.extract q) in
        (same, next))
      corpus
  in
  let expect =
    Array.mapi
      (fun i p ->
        let q = corpus.((i + 1) mod k) in
        let frames p = frame_views (reference_frames ~config:Extractor.default_config p) in
        (frames p, frames q))
      corpus
  in
  let one = run () in
  Alcotest.(check bool) "one domain ≡ reference" true (one = expect);
  let a = Domain.spawn run and b = Domain.spawn run in
  let a = Domain.join a and b = Domain.join b in
  Alcotest.(check bool) "first domain" true (a = expect);
  Alcotest.(check bool) "second domain" true (b = expect)

(* The gate's byte-class table, at every byte: the text bit is
   [is_text], the NOP bit is [Repetition.nop_like], and no other bit is
   set. *)
let test_gate_byte_classes () =
  for b = 0 to 255 do
    let c = Char.chr b in
    let cls = Extractor.byte_class c in
    if
      (cls land Extractor.text_bit <> 0) <> Extractor.is_text c
      || (cls land Extractor.nop_bit <> 0) <> Repetition.nop_like c
      || cls land lnot (Extractor.text_bit lor Extractor.nop_bit) <> 0
    then Alcotest.failf "byte 0x%02x: class %d" b cls
  done

(* With [min_len:1] the runs partition the input: they tile it in order
   and each is maximal (neighbouring runs differ in byte). *)
let prop_runs_partition =
  QCheck2.Test.make ~name:"byte runs tile the input maximally" ~count:500
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0x61 0x63)) (int_bound 300))
    (fun s ->
      let runs = Repetition.runs ~min_len:1 (Slice.of_string s) in
      let rec tiles pos prev = function
        | [] -> pos = String.length s
        | (r : Repetition.run) :: rest ->
            r.Repetition.off = pos
            && r.Repetition.len > 0
            && prev <> Some r.Repetition.byte
            && String.sub s pos r.Repetition.len = String.make r.Repetition.len r.Repetition.byte
            && tiles (pos + r.Repetition.len) (Some r.Repetition.byte) rest
      in
      tiles 0 None runs)

(* Uncapped decoding yields two little-endian bytes per escape. *)
let prop_unicode_decodes_le_pairs =
  QCheck2.Test.make ~name:"%u run decodes to little-endian pairs" ~count:300
    QCheck2.Gen.(list_size (int_range 4 40) (int_bound 0xFFFF))
    (fun vs ->
      let text = String.concat "" (List.map (Printf.sprintf "%%u%04x") vs) in
      let le v = String.init 2 (fun k -> Char.chr ((v lsr (8 * k)) land 0xFF)) in
      match Unicode.unicode_runs (Slice.of_string text) with
      | [ r ] ->
          r.Unicode.off = 0
          && r.Unicode.count = List.length vs
          && r.Unicode.decoded = String.concat "" (List.map le vs)
      | _ -> false)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_extract_never_raises;
      prop_suspicious_monotone_unicode;
      prop_gate_equals_scanners;
      prop_gate_equals_scanners_any_config;
      prop_runs_partition;
      prop_unicode_decodes_le_pairs;
    ]

let () =
  Alcotest.run "extract"
    [
      ( "unicode",
        [
          Alcotest.test_case "single escape" `Quick test_unicode_single_escape;
          Alcotest.test_case "run decoding" `Quick test_unicode_run_decoding;
          Alcotest.test_case "short run ignored" `Quick test_unicode_short_run_ignored;
          Alcotest.test_case "malformed" `Quick test_unicode_malformed;
          Alcotest.test_case "decoded size capped" `Quick test_unicode_decoded_cap;
          Alcotest.test_case "case insensitive" `Quick test_unicode_case_insensitive;
          Alcotest.test_case "split runs" `Quick test_unicode_split_runs;
        ] );
      ( "repetition",
        [
          Alcotest.test_case "runs" `Quick test_repetition_runs;
          Alcotest.test_case "scan window" `Quick test_repetition_scan_window;
          Alcotest.test_case "nop-like class" `Quick test_nop_like_class;
          Alcotest.test_case "sled threshold" `Quick test_sled_threshold;
          Alcotest.test_case "polymorphic sled" `Quick test_sled_like_polymorphic;
          Alcotest.test_case "return-address region" `Quick test_ret_address_runs;
        ] );
      ( "extractor",
        [
          Alcotest.test_case "benign empty" `Quick test_extract_benign_empty;
          Alcotest.test_case "code red frames" `Quick test_extract_code_red;
          Alcotest.test_case "raw with context" `Quick test_extract_raw_binary_with_context;
          Alcotest.test_case "gap merge" `Quick test_extract_gap_merge;
          Alcotest.test_case "max frames" `Quick test_extract_max_frames;
          Alcotest.test_case "gate byte classes" `Quick test_gate_byte_classes;
        ] );
      ( "resume",
        [
          test_resume_oracle;
          QCheck_alcotest.to_alcotest prop_resume_any_config;
          Alcotest.test_case "gate A, gate B, extract A" `Quick test_stale_other_payload;
          Alcotest.test_case "two views of one string" `Quick test_stale_other_view;
          Alcotest.test_case "gate and extract configs differ" `Quick test_stale_other_config;
          Alcotest.test_case "two domains at once" `Quick test_stale_two_domains;
        ] );
      ("properties", properties);
    ]
