(* Unit and property tests for the utility substrate. *)

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42L in
  let b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_copy_independent () =
  let a = Rng.create 7L in
  let _ = Rng.int64 a in
  let b = Rng.copy a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check int64) "copy continues the stream" va vb

let test_rng_split_differs () =
  let a = Rng.create 7L in
  let b = Rng.split a in
  let va = Rng.int64 a in
  let vb = Rng.int64 b in
  Alcotest.(check bool) "split decorrelates" true (va <> vb)

let test_rng_bounds () =
  let t = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int t 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  for _ = 1 to 1000 do
    let v = Rng.int_in t (-5) 5 in
    Alcotest.(check bool) "int_in range" true (v >= -5 && v <= 5)
  done;
  for _ = 1 to 1000 do
    let v = Rng.byte t in
    Alcotest.(check bool) "byte range" true (v >= 0 && v <= 255)
  done

let test_rng_int_invalid () =
  let t = Rng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int t 0))

let test_rng_shuffle_permutation () =
  let t = Rng.create 99L in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_chance_extremes () =
  let t = Rng.create 3L in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Rng.chance t 0.0);
    Alcotest.(check bool) "p=1 always" true (Rng.chance t 1.0)
  done

let test_rng_bytes_length () =
  let t = Rng.create 5L in
  check_int "length" 1000 (String.length (Rng.bytes t 1000))

(* ------------------------------------------------------------------ *)
(* Byte_io *)

let test_reader_be_le () =
  let r = Byte_io.Reader.of_string "\x01\x02\x03\x04" in
  check_int "u32_le" 0x04030201 (Byte_io.Reader.u32_le_int r);
  Byte_io.Reader.seek r 0;
  Alcotest.(check int32) "u32_le boxed" 0x04030201l (Byte_io.Reader.u32_le r)

let test_reader_truncation () =
  let r = Byte_io.Reader.of_string "\x01" in
  Alcotest.check_raises "u32 past end" (Byte_io.Truncated "u8") (fun () ->
      ignore (Byte_io.Reader.u32_le_int r))

let test_reader_view () =
  let r = Byte_io.Reader.of_string ~pos:2 ~len:3 "abcdefg" in
  let c1 = Byte_io.Reader.u8 r in
  let c2 = Byte_io.Reader.u8 r in
  let c3 = Byte_io.Reader.u8 r in
  check_string "windowed reads" "cde" (String.init 3 (fun i -> Char.chr [| c1; c2; c3 |].(i)));
  Alcotest.(check bool) "empty after" true (Byte_io.Reader.is_empty r)

let test_writer_roundtrip () =
  let w = Byte_io.Writer.create () in
  Byte_io.Writer.u8 w 0xAB;
  Byte_io.Writer.u16_be w 0x0102;
  Byte_io.Writer.u32_le w 0x11223344l;
  Byte_io.Writer.string w "xy";
  let s = Slice.of_string (Byte_io.Writer.contents w) in
  check_int "u8" 0xAB (Slice.get_u8 s 0);
  check_int "u16" 0x0102 (Slice.get_u16_be s 1);
  check_int "u32" 0x11223344 (Slice.get_u32_le_int s 3);
  check_string "tail" "xy" (Slice.to_string (Slice.sub s ~off:7 ~len:2))

let test_writer_patch () =
  let w = Byte_io.Writer.create () in
  Byte_io.Writer.u16_be w 0;
  Byte_io.Writer.string w "abc";
  Byte_io.Writer.patch_u16_be w 0 0xBEEF;
  let s = Byte_io.Writer.contents w in
  check_int "patched" 0xBE (Char.code s.[0]);
  check_int "patched lo" 0xEF (Char.code s.[1]);
  check_string "rest intact" "abc" (String.sub s 2 3)

let test_writer_fill () =
  let w = Byte_io.Writer.create () in
  Byte_io.Writer.fill w 0x90 5;
  check_string "fill" "\x90\x90\x90\x90\x90" (Byte_io.Writer.contents w)

(* ------------------------------------------------------------------ *)
(* Hexdump *)

let test_hex_roundtrip () =
  check_string "encode" "9048cd80" (Hexdump.encode "\x90\x48\xcd\x80");
  check_string "decode" "\x90\x48\xcd\x80" (Hexdump.decode "9048cd80");
  check_string "decode spaces" "\x90\x48" (Hexdump.decode "90 48");
  check_string "decode upper" "\xAB" (Hexdump.decode "AB")

let test_hex_invalid () =
  Alcotest.check_raises "odd digits"
    (Invalid_argument "Hexdump.decode: odd number of hex digits") (fun () ->
      ignore (Hexdump.decode "abc"))

let test_of_ints () =
  check_string "of_ints" "\x01\xff" (Hexdump.of_ints [ 1; 255 ])

let test_dump_format () =
  let d = Hexdump.to_string "ABC" in
  Alcotest.(check bool) "has offset" true
    (String.length d > 8 && String.sub d 0 8 = "00000000");
  Alcotest.(check bool) "has gutter" true (String.contains d '|')

(* ------------------------------------------------------------------ *)
(* Entropy *)

let test_histogram_total () =
  let h = Entropy.histogram "aab" in
  check_int "a count" 2 h.(Char.code 'a');
  check_int "b count" 1 h.(Char.code 'b');
  check_int "total" 3 (Array.fold_left ( + ) 0 h)

let test_chi_square_self () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let h = Entropy.histogram s in
  let p = Entropy.normalize h in
  let v = Entropy.chi_square ~observed:h ~expected:p in
  Alcotest.(check bool) "self distance near zero" true (v < 1e-6)

let test_normalize () =
  let p = Entropy.normalize (Entropy.histogram "aaab") in
  Alcotest.(check (float 1e-12)) "a share" 0.75 p.(Char.code 'a');
  Alcotest.(check (float 1e-12)) "b share" 0.25 p.(Char.code 'b');
  Alcotest.(check (float 1e-12)) "unseen byte" 0.0 p.(0);
  (* no observations: the uniform distribution, not a division by zero *)
  let u = Entropy.normalize (Array.make 256 0) in
  Alcotest.(check bool) "empty is uniform" true (Array.for_all (fun x -> x = 1.0 /. 256.0) u)

let test_chi_square_divergence () =
  let text = Entropy.normalize (Entropy.histogram "the quick brown fox jumps over the lazy dog") in
  let near = Entropy.histogram "a lazy dog jumps over the quick brown fox" in
  let far = Entropy.histogram (String.init 43 (fun i -> Char.chr (0x80 + i))) in
  Alcotest.(check bool) "binary scores farther than text" true
    (Entropy.chi_square ~observed:far ~expected:text
    > Entropy.chi_square ~observed:near ~expected:text);
  Alcotest.check_raises "bins checked"
    (Invalid_argument "Entropy.chi_square: arrays must have 256 bins") (fun () ->
      ignore (Entropy.chi_square ~observed:(Array.make 10 0) ~expected:text))

(* ------------------------------------------------------------------ *)
(* File *)

let test_file_read () =
  let path = Filename.temp_file "sanids_file" ".bin" in
  let data = String.init 70_000 (fun i -> Char.chr (i land 0xFF)) in
  Out_channel.with_open_bin path (fun oc -> output_string oc data);
  Alcotest.(check bool) "contents" true (File.read path = Ok data);
  Sys.remove path;
  let is_error_naming p = function
    | Error m -> String.starts_with ~prefix:(p ^ ": ") m
    | Ok _ -> false
  in
  Alcotest.(check bool) "missing file" true (is_error_naming path (File.read path));
  let dir = Filename.get_temp_dir_name () in
  Alcotest.(check bool) "directory" true (is_error_naming dir (File.read dir))

(* A whole-file write replaces the file, leaves no [.tmp] behind, and
   fails as an [Error] naming the path when the directory is missing. *)
let test_file_write () =
  let path = Filename.temp_file "sanids_file" ".bin" in
  Alcotest.(check bool) "first write" true (File.write path "old contents" = Ok ());
  Alcotest.(check bool) "second write" true (File.write path "new" = Ok ());
  Alcotest.(check bool) "replaced" true (File.read path = Ok "new");
  Alcotest.(check bool) "no tmp left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  let missing = Filename.concat path "x" in
  match File.write missing "data" with
  | Ok () -> Alcotest.fail "wrote into a missing directory"
  | Error m ->
      Alcotest.(check bool) "names the path" true (String.starts_with ~prefix:missing m)

(* ------------------------------------------------------------------ *)
(* Bqueue *)

let test_policy_strings () =
  List.iter
    (fun p ->
      match Bqueue.policy_of_string_result (Bqueue.policy_to_string p) with
      | Ok q -> Alcotest.(check bool) (Bqueue.policy_to_string p) true (p = q)
      | Error e -> Alcotest.fail e)
    [ Bqueue.Drop_newest; Bqueue.Drop_oldest; Bqueue.Block ];
  match Bqueue.policy_of_string_result "drop_all" with
  | Error e ->
      Alcotest.(check bool) "error names the spec" true
        (String.length e > 12 && String.sub e 0 12 = "drop policy:")
  | Ok _ -> Alcotest.fail "unknown policy must not parse"

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_reader () =
  (match Json.of_string {| { "a": [1, 0x10, -0x10, 2.5e-3, true, null, "x\n"] } |} with
  | Ok (Json.Obj [ ("a", Json.List l) ]) ->
      Alcotest.(check int) "array arity" 7 (List.length l);
      Alcotest.(check (option int)) "hex int" (Some 16) (Json.to_int_opt (List.nth l 1));
      Alcotest.(check (option int)) "negative hex int" (Some (-16))
        (Json.to_int_opt (List.nth l 2));
      Alcotest.(check (option (float 0.))) "float" (Some 2.5e-3)
        (Json.to_float_opt (List.nth l 3))
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [
      "{"; "[1,]"; {|{"a" 1}|}; "-"; "0x"; "1."; "1e"; {|"\u0100"|};
      (* a raw control byte inside a string *)
      "\"a\tb\""; "\"a\x01b\""; "[\"a\nb\"]";
      (* trailing garbage *)
      "[1] trailing"; "{} {}"; "1 2";
    ]

(* a float is a number but not an integer: the emu-test loader's
   integer fields see [None] and report the field *)
let test_json_float_not_int () =
  match Json.of_string {|{"steps": 1.5}|} with
  | Ok j ->
      let steps = Option.get (Json.member "steps" j) in
      Alcotest.(check (option int)) "not an integer" None (Json.to_int_opt steps);
      Alcotest.(check (option (float 0.))) "a float" (Some 1.5) (Json.to_float_opt steps)
  | Error e -> Alcotest.fail e

(* the escaping rule, byte for byte: short escapes for quote, backslash,
   \n \r \t; \u00XX for the other bytes below 0x20; everything from
   0x7F up (UTF-8 included) passes through *)
let test_json_writer () =
  check_string "escapes"
    ({|{"k\"":["q\"b\\s\n\r\t\u0001\u001f\u0008","|} ^ "\127—é"
   ^ {|"],"n":-0x1F,"f":1.50,"b":true,"z":null}|})
    (Json.to_string
       (Json.Obj
          [
            ( "k\"",
              Json.List [ Json.String "q\"b\\s\n\r\t\001\031\b"; Json.String "\127—é" ] );
            ("n", Json.Number "-0x1F");
            ("f", Json.Number "1.50");
            ("b", Json.Bool true);
            ("z", Json.Null);
          ]))

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_hex_roundtrip =
  QCheck2.Test.make ~name:"hexdump decode∘encode = id" ~count:500
    QCheck2.Gen.(string_size (int_bound 200))
    (fun s -> Hexdump.decode (Hexdump.encode s) = s)

let prop_rng_int_uniformish =
  QCheck2.Test.make ~name:"rng int stays in bound" ~count:200
    QCheck2.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let t = Rng.create seed in
      let ok = ref true in
      for _ = 1 to 50 do
        let v = Rng.int t bound in
        if v < 0 || v >= bound then ok := false
      done;
      !ok)

(* strings over all 256 byte values, nested lists and objects, decimal,
   negative and 0x integers and floats: the reader reads back exactly
   what the writer wrote *)
let gen_json =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  let number =
    oneof
      [
        map Json.int int;
        map (fun n -> Json.Number (Printf.sprintf "0x%x" n)) nat;
        map (fun n -> Json.Number (Printf.sprintf "-0X%X" n)) nat;
        map3
          (fun i f e -> Json.Number (Printf.sprintf "%d.%de%d" i f e))
          small_signed_int nat (int_range (-30) 30);
      ]
  in
  let leaf =
    oneof
      [
        pure Json.Null;
        map (fun b -> Json.Bool b) bool;
        number;
        map (fun s -> Json.String s) str;
      ]
  in
  sized_size (int_bound 24)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.List l) (list_size (int_bound 4) (self (n / 2))));
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str (self (n / 2)))) );
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"json of_string (to_string v) = Ok v" ~count:500
    ~print:Json.to_string gen_json (fun v -> Json.of_string (Json.to_string v) = Ok v)

(* ------------------------------------------------------------------ *)
(* Search *)

(* The substring scanner allocates nothing: a miss over a 319-byte view
   (the mean benign binary frame of the cold workload), both cases, and
   a hit past the first candidate.  [Gc.minor_words] boxes its result,
   so a few words of measurement overhead are allowed over 1,000 calls;
   a closure per call would cost thousands. *)
let test_search_allocates_nothing () =
  let rng = Rng.create 0x5EA5C4L in
  let hay = Rng.bytes rng 400 in
  let view = Slice.sub (Slice.of_string hay) ~off:40 ~len:319 in
  let needle = "MAIL FROM:" and hit = Slice.to_string (Slice.sub view ~off:300 ~len:6) in
  let expected = Search.contains_slice ~needle view in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Search.contains_slice ~needle view : bool);
    ignore (Search.contains_slice ~nocase:true ~needle view : bool);
    ignore (Search.contains_slice ~needle:hit view : bool);
    ignore (Search.contains ~needle:"\xCD\x80" hay : bool)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "a planted needle is found" true (Search.contains_slice ~needle:hit view);
  Alcotest.(check bool) "the miss is stable" expected (Search.contains_slice ~needle view);
  if words > 16.0 then
    Alcotest.failf "4,000 searches allocated %.0f minor words" words

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hex_roundtrip; prop_rng_int_uniformish; prop_json_roundtrip;
    ]

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split differs" `Quick test_rng_split_differs;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "bytes length" `Quick test_rng_bytes_length;
        ] );
      ( "byte_io",
        [
          Alcotest.test_case "endianness" `Quick test_reader_be_le;
          Alcotest.test_case "truncation" `Quick test_reader_truncation;
          Alcotest.test_case "view" `Quick test_reader_view;
          Alcotest.test_case "writer roundtrip" `Quick test_writer_roundtrip;
          Alcotest.test_case "patch" `Quick test_writer_patch;
          Alcotest.test_case "fill" `Quick test_writer_fill;
        ] );
      ( "hexdump",
        [
          Alcotest.test_case "roundtrip" `Quick test_hex_roundtrip;
          Alcotest.test_case "invalid" `Quick test_hex_invalid;
          Alcotest.test_case "of_ints" `Quick test_of_ints;
          Alcotest.test_case "dump format" `Quick test_dump_format;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "histogram" `Quick test_histogram_total;
          Alcotest.test_case "chi-square self" `Quick test_chi_square_self;
          Alcotest.test_case "normalize" `Quick test_normalize;
          Alcotest.test_case "chi-square divergence" `Quick test_chi_square_divergence;
        ] );
      ( "file",
        [
          Alcotest.test_case "read" `Quick test_file_read;
          Alcotest.test_case "write" `Quick test_file_write;
        ] );
      ("bqueue", [ Alcotest.test_case "policy strings" `Quick test_policy_strings ]);
      ("search", [ Alcotest.test_case "allocates nothing" `Quick test_search_allocates_nothing ]);
      ( "json",
        [
          Alcotest.test_case "reader" `Quick test_json_reader;
          Alcotest.test_case "float is not an integer" `Quick test_json_float_not_int;
          Alcotest.test_case "writer escaping" `Quick test_json_writer;
        ] );
      ("properties", properties);
    ]
