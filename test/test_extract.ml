(* Tests for HTTP parsing, unicode decoding, repetition and the binary
   frame extractor (paper §4.2). *)

open Sanids_extract

let test_http_parse_get () =
  let payload = "GET /index.html HTTP/1.1\r\nHost: www\r\nAccept: */*\r\n\r\n" in
  match Http.parse_request payload with
  | Ok r ->
      Alcotest.(check string) "method" "GET" r.Http.meth;
      Alcotest.(check string) "target" "/index.html" r.Http.target;
      Alcotest.(check string) "version" "HTTP/1.1" r.Http.version;
      Alcotest.(check (option string)) "host header" (Some "www")
        (List.assoc_opt "Host" r.Http.headers);
      Alcotest.(check string) "empty body" "" r.Http.body
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_http_parse_post_body () =
  let payload = "POST /x HTTP/1.0\r\nContent-Length: 3\r\n\r\nabc" in
  match Http.parse_request payload with
  | Ok r -> Alcotest.(check string) "body" "abc" r.Http.body
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_http_reject_non_http () =
  Alcotest.(check bool) "smtp is not http" false (Http.is_request "EHLO mail\r\n");
  match Http.parse_request "garbage" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

let test_http_target_offset () =
  match Http.parse_request "GET /abc HTTP/1.0\r\n\r\n" with
  | Ok r -> Alcotest.(check int) "target offset" 4 r.Http.target_off
  | Error e -> Alcotest.failf "parse failed: %s" e

(* ------------------------------------------------------------------ *)

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

let test_percent_decode () =
  Alcotest.(check string) "basic" "a b/c" (Unicode.percent_decode "a+b%2Fc");
  Alcotest.(check string) "passthrough" "100%" (Unicode.percent_decode "100%")

(* ------------------------------------------------------------------ *)

let test_repetition_runs () =
  let s = Slice.of_string ("ab" ^ String.make 40 'X' ^ "cd" ^ String.make 10 'Y') in
  match Repetition.runs ~min_len:32 s with
  | [ r ] ->
      Alcotest.(check int) "offset" 2 r.Repetition.off;
      Alcotest.(check char) "byte" 'X' r.Repetition.byte;
      Alcotest.(check int) "len" 40 r.Repetition.len
  | other -> Alcotest.failf "expected one run, got %d" (List.length other)

let test_repetition_longest () =
  match Repetition.longest (Slice.of_string "aaabbbbcc") with
  | Some r ->
      Alcotest.(check char) "byte" 'b' r.Repetition.byte;
      Alcotest.(check int) "len" 4 r.Repetition.len
  | None -> Alcotest.fail "expected a run"

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
      (let* k = around Repetition.default_ret_count in
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
       let* lsbs = list_repeat k (map Char.chr (int_bound 255)) in
       return
         (String.concat ""
            (List.map (fun l -> String.init 4 (fun j -> if j = 0 then l else List.nth upper (j - 1))) lsbs)));
      (let* k = around d.Extractor.min_binary_region in
       string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (return k));
      string_size ~gen:(map Char.chr (int_range 0x80 0xff)) (int_range 1 12);
      text (around d.Extractor.gap_merge);
    ]

let gen_gate_case =
  let open QCheck2.Gen in
  let* pieces = list_size (int_range 1 6) gen_threshold_piece in
  let payload = String.concat "" pieces in
  let n = String.length payload in
  let* cut = oneof [ return Extractor.default_config.Extractor.max_frame_bytes; int_bound (n + 1) ] in
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

(* The same equivalence under arbitrary small thresholds, over bytes
   drawn from the alphabet the predicates care about. *)
let prop_gate_equals_scanners_any_config =
  let open QCheck2.Gen in
  let alphabet =
    oneof
      [
        oneofl [ '%'; 'u'; 'U'; '0'; '9'; 'a'; 'F'; 'g'; ' '; 'A'; '\x90'; '\x41'; '\x00'; '\xcb' ];
        map Char.chr (int_bound 255);
      ]
  in
  let gen =
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
  in
  QCheck2.Test.make ~name:"suspicious = scanners under any thresholds" ~count:3000
    ~print:(fun (p, (c : Extractor.config)) ->
      Printf.sprintf "payload=%S u=%d rep=%d bin=%d gap=%d max=%d" p
        c.Extractor.min_unicode_run c.Extractor.min_repeat c.Extractor.min_binary_region
        c.Extractor.gap_merge c.Extractor.max_frame_bytes)
    gen
    (fun (payload, config) ->
      let p = Slice.of_string payload in
      Extractor.suspicious ~config p = scanners_oracle ~config p)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_extract_never_raises;
      prop_suspicious_monotone_unicode;
      prop_gate_equals_scanners;
      prop_gate_equals_scanners_any_config;
    ]

let () =
  Alcotest.run "extract"
    [
      ( "http",
        [
          Alcotest.test_case "parse get" `Quick test_http_parse_get;
          Alcotest.test_case "parse post body" `Quick test_http_parse_post_body;
          Alcotest.test_case "reject non-http" `Quick test_http_reject_non_http;
          Alcotest.test_case "target offset" `Quick test_http_target_offset;
        ] );
      ( "unicode",
        [
          Alcotest.test_case "single escape" `Quick test_unicode_single_escape;
          Alcotest.test_case "run decoding" `Quick test_unicode_run_decoding;
          Alcotest.test_case "short run ignored" `Quick test_unicode_short_run_ignored;
          Alcotest.test_case "malformed" `Quick test_unicode_malformed;
          Alcotest.test_case "percent decode" `Quick test_percent_decode;
        ] );
      ( "repetition",
        [
          Alcotest.test_case "runs" `Quick test_repetition_runs;
          Alcotest.test_case "longest" `Quick test_repetition_longest;
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
        ] );
      ("properties", properties);
    ]
