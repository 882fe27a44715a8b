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
  check_int "u16_be" 0x0102 (Byte_io.Reader.u16_be r);
  Byte_io.Reader.seek r 0;
  check_int "u16_le" 0x0201 (Byte_io.Reader.u16_le r);
  Byte_io.Reader.seek r 0;
  check_int "u32_be" 0x01020304 (Byte_io.Reader.u32_be_int r);
  Byte_io.Reader.seek r 0;
  check_int "u32_le" 0x04030201 (Byte_io.Reader.u32_le_int r)

let test_reader_truncation () =
  let r = Byte_io.Reader.of_string "\x01" in
  Alcotest.check_raises "u16 past end" (Byte_io.Truncated "u8") (fun () ->
      ignore (Byte_io.Reader.u16_be r))

let test_reader_view () =
  let r = Byte_io.Reader.of_string ~pos:2 ~len:3 "abcdefg" in
  check_string "windowed take" "cde" (Byte_io.Reader.take r 3);
  Alcotest.(check bool) "empty after" true (Byte_io.Reader.is_empty r)

let test_writer_roundtrip () =
  let w = Byte_io.Writer.create () in
  Byte_io.Writer.u8 w 0xAB;
  Byte_io.Writer.u16_be w 0x0102;
  Byte_io.Writer.u32_le w 0x11223344l;
  Byte_io.Writer.string w "xy";
  let s = Byte_io.Writer.contents w in
  let r = Byte_io.Reader.of_string s in
  check_int "u8" 0xAB (Byte_io.Reader.u8 r);
  check_int "u16" 0x0102 (Byte_io.Reader.u16_be r);
  check_int "u32" 0x11223344 (Byte_io.Reader.u32_le_int r);
  check_string "tail" "xy" (Byte_io.Reader.rest r)

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

let test_entropy_extremes () =
  Alcotest.(check (float 1e-9)) "constant string" 0.0 (Entropy.shannon (String.make 100 'a'));
  let all = String.init 256 Char.chr in
  Alcotest.(check (float 1e-9)) "uniform 256" 8.0 (Entropy.shannon all);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Entropy.shannon "")

let test_entropy_two_symbol () =
  let s = String.init 100 (fun i -> if i mod 2 = 0 then 'a' else 'b') in
  Alcotest.(check (float 1e-9)) "fair two-symbol = 1 bit" 1.0 (Entropy.shannon s)

let test_printable_fraction () =
  Alcotest.(check (float 1e-9)) "all printable" 1.0 (Entropy.printable_fraction "hello");
  Alcotest.(check (float 1e-9)) "none printable" 0.0
    (Entropy.printable_fraction "\x01\x02\x03");
  Alcotest.(check (float 1e-9)) "half" 0.5 (Entropy.printable_fraction "a\x01")

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

let prop_entropy_bounds =
  QCheck2.Test.make ~name:"entropy in [0,8]" ~count:500
    QCheck2.Gen.(string_size (int_bound 300))
    (fun s ->
      let e = Entropy.shannon s in
      e >= 0.0 && e <= 8.0 +. 1e-9)

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

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_hex_roundtrip; prop_entropy_bounds; prop_rng_int_uniformish; prop_json_roundtrip;
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
          Alcotest.test_case "extremes" `Quick test_entropy_extremes;
          Alcotest.test_case "two symbol" `Quick test_entropy_two_symbol;
          Alcotest.test_case "printable fraction" `Quick test_printable_fraction;
          Alcotest.test_case "histogram" `Quick test_histogram_total;
          Alcotest.test_case "chi-square self" `Quick test_chi_square_self;
        ] );
      ( "json",
        [
          Alcotest.test_case "reader" `Quick test_json_reader;
          Alcotest.test_case "float is not an integer" `Quick test_json_float_not_int;
          Alcotest.test_case "writer escaping" `Quick test_json_writer;
        ] );
      ("properties", properties);
    ]
