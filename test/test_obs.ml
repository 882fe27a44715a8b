(* Unit tests for the observability core (sanids.obs): histogram
   bucketing, the registry, snapshot algebra, the exporters (including a
   small Prometheus text-format lint), and timer spans. *)

module Obs = Sanids_obs
module H = Obs.Histogram
module R = Obs.Registry
module S = Obs.Snapshot

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_hist_basics () =
  let h = H.create () in
  List.iter (H.observe h) [ 1e-6; 2e-6; 1e-3; 0.5 ];
  let s = H.snap h in
  Alcotest.(check int) "count" 4 (H.count s);
  Alcotest.(check bool) "sum" true (abs_float (H.sum s -. 0.501003) < 1e-9);
  Alcotest.(check bool) "mean" true (abs_float (H.mean s -. (H.sum s /. 4.0)) < 1e-12);
  Alcotest.(check int) "empty count" 0 (H.count H.empty_snap);
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (H.quantile H.empty_snap 0.5)

let test_hist_bucketing () =
  (* each observation lands in the bucket whose bounds contain it *)
  List.iter
    (fun v ->
      let i = H.bucket_of_seconds v in
      Alcotest.(check bool)
        (Printf.sprintf "%g below upper bound" v)
        true
        (v <= H.bucket_upper i);
      if i > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "%g above lower bound" v)
          true
          (v > H.bucket_upper (i - 1)))
    [ 1e-9; 3e-9; 1e-6; 4.2e-5; 1e-3; 0.9; 12.0 ]

(* Integer bucketing at every power-of-two edge: bucket [i] holds
   [2^(i-1), 2^i) ns, except that bucket 0 takes everything up to 1 ns
   (so bucket 1 stays empty).  So [2^k - 1] is in bucket k, and [2^k]
   and [2^k + 1] in bucket k + 1, for k = 0 to 61 but the low edge (0
   and 1 in bucket 0, 2 in bucket 2); 2^62 - 1, the largest int, is in
   bucket 62. *)
let test_hist_ns_boundaries () =
  let bucket what n expect =
    Alcotest.(check int) (Printf.sprintf "%s (%d ns)" what n) expect (H.bucket_of_ns n)
  in
  List.iter (fun n -> bucket "at most 1 ns" n 0) [ min_int; -1; 0; 1 ];
  for k = 1 to 61 do
    let p = 1 lsl k in
    bucket (Printf.sprintf "2^%d - 1" k) (p - 1) (if k = 1 then 0 else k);
    bucket (Printf.sprintf "2^%d" k) p (k + 1);
    bucket (Printf.sprintf "2^%d + 1" k) (p + 1) (k + 1)
  done;
  bucket "2^62 - 1" max_int 62;
  (* observe_ns lands where bucket_of_ns says and sums integers *)
  let h = H.create () in
  List.iter (H.observe_ns h) [ -5; 0; 1; 2; 3; 1023; 1024 ];
  let s = H.snap h in
  Alcotest.(check (list int)) "occupied buckets" [ 3; 0; 2; 0; 0; 0; 0; 0; 0; 0; 1; 1 ]
    (Array.to_list (Array.sub s.H.counts 0 12));
  Alcotest.(check (float 0.0)) "integer sum, seconds" (2053.0 /. 1e9) (H.sum s)

let test_hist_quantile_upper_bound () =
  let h = H.create () in
  (* 100 observations at ~1ms: every quantile's bucket bound must cover
     1ms and over-estimate by at most one octave *)
  for _ = 1 to 100 do
    H.observe h 1e-3
  done;
  let s = H.snap h in
  let q = H.quantile s 0.5 in
  Alcotest.(check bool) "covers the observation" true (q >= 1e-3);
  Alcotest.(check bool) "within one octave" true (q <= 4e-3)

let test_hist_clamps_garbage () =
  let h = H.create () in
  H.observe h (-1.0);
  H.observe h Float.nan;
  let s = H.snap h in
  Alcotest.(check int) "both counted" 2 (H.count s);
  Alcotest.(check (float 0.0)) "clamped to zero sum" 0.0 (H.sum s)

let test_hist_merge () =
  let a = H.create () and b = H.create () in
  H.observe a 1e-6;
  H.observe a 1e-3;
  H.observe b 1e-3;
  let m = H.merge (H.snap a) (H.snap b) in
  Alcotest.(check int) "merged count" 3 (H.count m);
  Alcotest.(check bool) "merged sum" true (abs_float (H.sum m -. 0.002001) < 1e-9);
  let i = H.bucket_of_seconds 1e-3 in
  Alcotest.(check int) "bucket-wise addition" 2 m.H.counts.(i)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counters () =
  let r = R.create () in
  let c = R.counter r ~help:"test counter" "sanids_test_total" in
  R.incr c;
  R.add c 4;
  Alcotest.(check int) "value" 5 (R.counter_value c);
  (* registration is idempotent: same handle by name *)
  R.incr (R.counter r "sanids_test_total");
  Alcotest.(check int) "same underlying metric" 6 (R.counter_value c);
  Alcotest.(check (option string)) "help kept" (Some "test counter")
    (R.help r "sanids_test_total")

let test_registry_gauges () =
  let r = R.create () in
  let g = R.gauge r "sanids_test_entries" in
  R.set_gauge g 41.0;
  R.add_gauge g 1.0;
  Alcotest.(check (float 0.0)) "gauge value" 42.0 (R.gauge_value g)

let test_registry_validation () =
  let r = R.create () in
  (match R.counter r "0bad name" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "malformed name must raise");
  let _ = R.counter r "sanids_dual" in
  match R.gauge r "sanids_dual" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind conflict must raise"

(* The lookup hit path: a registered series comes back as the same
   handle without re-validation, yet a kind conflict or a malformed name
   still raises once its series exists. *)
let test_registry_hit_path () =
  let r = R.create () in
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s must raise" what
  in
  let c = R.counter r ~help:"h" "sanids_hit_total" in
  let c' = R.counter r ~help:"h" "sanids_hit_total" in
  Alcotest.(check bool) "same handle" true (c == c');
  R.incr c;
  R.add c' 2;
  Alcotest.(check int) "counts accumulate" 3 (R.counter_value c);
  let l = R.counter r ~labels:[ ("reason", "x"); ("kind", "y") ] "sanids_hit_total" in
  Alcotest.(check bool) "labeled: same handle in any label order" true
    (l == R.counter r ~labels:[ ("kind", "y"); ("reason", "x") ] "sanids_hit_total");
  let g = R.gauge r "sanids_hit_g" in
  Alcotest.(check bool) "gauge: same handle" true (g == R.gauge r "sanids_hit_g");
  let h = R.histogram r "sanids_hit_seconds" in
  Alcotest.(check bool) "histogram: same handle" true
    (h == R.histogram r "sanids_hit_seconds");
  raises "kind conflict on a registered counter" (fun () ->
      ignore (R.gauge r "sanids_hit_total"));
  raises "kind conflict on a registered labeled series" (fun () ->
      ignore (R.gauge r ~labels:[ ("kind", "y"); ("reason", "x") ] "sanids_hit_total"));
  raises "kind conflict on a registered histogram" (fun () ->
      ignore (R.counter r "sanids_hit_seconds"));
  raises "invalid name" (fun () -> ignore (R.counter r "sanids hit"));
  raises "a bare name spelling a labeled series" (fun () ->
      ignore (R.counter r {|sanids_hit_total{kind="y",reason="x"}|}))

let test_registry_snapshot_reset () =
  let r = R.create () in
  R.add (R.counter r "sanids_a_total") 3;
  R.set_gauge (R.gauge r "sanids_g") 2.5;
  H.observe (R.histogram r "sanids_h_seconds") 1e-3;
  let s = R.snapshot r in
  Alcotest.(check int) "counter in snapshot" 3 (S.counter_value s "sanids_a_total");
  Alcotest.(check (float 0.0)) "gauge in snapshot" 2.5 (S.gauge_value s "sanids_g");
  Alcotest.(check int) "histogram in snapshot" 1 (H.count (S.histogram s "sanids_h_seconds"));
  R.reset r;
  let s' = R.snapshot r in
  Alcotest.(check int) "counter zeroed" 0 (S.counter_value s' "sanids_a_total");
  Alcotest.(check int) "histogram zeroed" 0 (H.count (S.histogram s' "sanids_h_seconds"))

(* ------------------------------------------------------------------ *)
(* Snapshot *)

let test_snapshot_defaults_and_kinds () =
  let s = S.of_list [ ("a_total", S.Counter 1); ("a_total", S.Counter 2) ] in
  Alcotest.(check int) "duplicates merged" 3 (S.counter_value s "a_total");
  Alcotest.(check int) "absent counter is 0" 0 (S.counter_value s "nope");
  Alcotest.(check (float 0.0)) "absent gauge is 0" 0.0 (S.gauge_value s "nope");
  Alcotest.(check int) "absent histogram is empty" 0 (H.count (S.histogram s "nope"));
  let g = S.of_list [ ("a_total", S.Gauge 1.0) ] in
  match S.merge s g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind conflict in merge must raise"

(* ------------------------------------------------------------------ *)
(* Prometheus exporter + lint *)

(* A strict-enough lint of the text exposition format: every line is a
   comment ("# HELP name text" / "# TYPE name counter|gauge|histogram")
   or a sample ("name[{le="..."}] value" with a finite or +Inf value).
   The cram test greps a scan's real export through the same shapes. *)
let lint_promtext text =
  let is_name s =
    s <> ""
    && String.for_all
         (fun ch ->
           (ch >= 'a' && ch <= 'z')
           || (ch >= 'A' && ch <= 'Z')
           || (ch >= '0' && ch <= '9')
           || ch = '_' || ch = ':')
         s
    && not (s.[0] >= '0' && s.[0] <= '9')
  in
  let check_line line =
    if line = "" then ()
    else if String.length line >= 2 && String.sub line 0 2 = "# " then (
      match String.split_on_char ' ' line with
      | "#" :: ("HELP" | "TYPE") :: name :: rest ->
          if not (is_name name) then failwith ("bad comment name: " ^ line);
          if rest = [] then failwith ("empty comment body: " ^ line)
      | _ -> failwith ("bad comment: " ^ line))
    else
      match String.index_opt line ' ' with
      | None -> failwith ("no value: " ^ line)
      | Some i ->
          let series = String.sub line 0 i in
          let value = String.sub line (i + 1) (String.length line - i - 1) in
          let name =
            match String.index_opt series '{' with
            | None -> series
            | Some j ->
                if line.[i - 1] <> '}' then failwith ("unclosed labels: " ^ line);
                String.sub series 0 j
          in
          if not (is_name name) then failwith ("bad metric name: " ^ line);
          if value <> "+Inf" && Float.is_nan (float_of_string value) then
            failwith ("NaN value: " ^ line)
  in
  List.iter check_line (String.split_on_char '\n' text)

let test_prometheus_export () =
  let r = R.create () in
  R.add (R.counter r ~help:"packets seen" "sanids_packets_total") 9;
  R.set_gauge (R.gauge r "sanids_cache_entries") 4.0;
  let h = R.histogram r "sanids_stage_match_seconds" in
  H.observe h 1e-6;
  H.observe h 1e-3;
  let text = Obs.Export.to_prometheus ~help:(R.help r) (R.snapshot r) in
  lint_promtext text;
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP line" true (has "# HELP sanids_packets_total packets seen");
  Alcotest.(check bool) "TYPE counter" true (has "# TYPE sanids_packets_total counter");
  Alcotest.(check bool) "counter sample" true (has "sanids_packets_total 9");
  Alcotest.(check bool) "gauge sample" true (has "sanids_cache_entries 4");
  Alcotest.(check bool) "histogram type" true
    (has "# TYPE sanids_stage_match_seconds histogram");
  Alcotest.(check bool) "+Inf bucket" true
    (has "sanids_stage_match_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "histogram count" true (has "sanids_stage_match_seconds_count 2");
  (* deterministic: same snapshot renders identically *)
  Alcotest.(check string) "deterministic"
    text
    (Obs.Export.to_prometheus ~help:(R.help r) (R.snapshot r))

let test_jsonl_export () =
  let r = R.create () in
  R.add (R.counter r "sanids_a_total") 2;
  H.observe (R.histogram r "sanids_h_seconds") 1e-3;
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Export.to_jsonl (R.snapshot r)))
  in
  Alcotest.(check int) "one line per metric" 2 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "object per line" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines

(* label values carrying JSON-special bytes: every exported line must
   still be one strict JSON object naming its series *)
let test_jsonl_escapes_labels () =
  let r = R.create () in
  let values = [ "a\"b"; "c\\d"; "e\nf"; "g\th" ] in
  List.iter
    (fun v -> R.incr (R.counter r ~labels:[ ("reason", v) ] "sanids_odd_total"))
    values;
  R.set_gauge (R.gauge r ~labels:[ ("state", "x\ty") ] "sanids_odd_gauge") 1.5;
  let lines =
    String.split_on_char '\n' (String.trim (Obs.Export.to_jsonl (R.snapshot r)))
  in
  let expected =
    R.series_name "sanids_odd_gauge" [ ("state", "x\ty") ]
    :: List.map (fun v -> R.series_name "sanids_odd_total" [ ("reason", v) ]) values
  in
  Alcotest.(check (list string))
    "metric names round-trip"
    (List.sort compare expected)
    (List.sort compare
       (List.map
          (fun l ->
            match Json.of_string l with
            | Error e -> Alcotest.failf "%S is not strict JSON: %s" l e
            | Ok j -> (
                match Option.bind (Json.member "metric" j) Json.to_string_opt with
                | Some m -> m
                | None -> Alcotest.failf "%S has no metric field" l))
          lines))

(* Records are exact: a histogram sum and bucket bound print with every
   digit they need, and a non-finite gauge is a JSON string, so each
   line stays strict JSON and reads back to the value written. *)
let test_jsonl_exact () =
  let r = R.create () in
  List.iter
    (fun (name, v) -> R.set_gauge (R.gauge r name) v)
    [ ("sanids_inf", infinity); ("sanids_neg_inf", neg_infinity); ("sanids_nan", Float.nan) ];
  (* 13 significant digits, all of them whole nanoseconds *)
  H.observe (R.histogram r "sanids_h_seconds") 1234.567890123;
  let snap = R.snapshot r in
  let text = Obs.Export.to_jsonl snap in
  let records =
    List.map
      (fun l ->
        match Json.of_string l with
        | Ok j -> j
        | Error e -> Alcotest.failf "%S is not strict JSON: %s" l e)
      (String.split_on_char '\n' (String.trim text))
  in
  let has needle =
    let n = String.length needle and m = String.length text in
    let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "sum digits" true (has {|"sum":1234.567890123|});
  Alcotest.(check bool) "bucket bound digits" true (has "[2199.023255552,1]");
  Alcotest.(check bool) "inf as a string" true (has {|"value":"inf"|});
  match Obs.Export.of_records records with
  | Error m -> Alcotest.fail m
  | Ok back ->
      Alcotest.(check (float 0.0)) "inf" infinity (S.gauge_value back "sanids_inf");
      Alcotest.(check (float 0.0)) "-inf" neg_infinity (S.gauge_value back "sanids_neg_inf");
      Alcotest.(check bool) "nan" true (Float.is_nan (S.gauge_value back "sanids_nan"));
      Alcotest.(check bool) "histogram" true
        (S.histogram back "sanids_h_seconds" = S.histogram snap "sanids_h_seconds")

(* ------------------------------------------------------------------ *)
(* Spans *)

(* The sampled stage, driven by injected durations (no clock read): a
   call the sampler leaves untimed records the last timed duration.
   Counts and bucket totals are exact; the sum estimates the exact sum
   within 3%, over a fixed-seed i.i.d. stream and over a stream that
   repeats with period 64 (a replayed pool of 64 records, one of them
   20x as slow).  Timing every 16th call would never see that record:
   its estimate is 23% low, so the stream does tell gaps drawn at
   random from a fixed stride. *)
let test_span_sampled_sum () =
  let n = 16 * 65_536 in
  let check what durations =
    let r = R.create () in
    let st = Obs.Span.stage ~sampled:true r "classify" in
    let exact = ref 0 in
    for i = 0 to n - 1 do
      let d = durations i in
      exact := !exact + d;
      Obs.Span.observe_ns st d
    done;
    let h = S.histogram (R.snapshot r) (Obs.Span.metric_of_stage "classify") in
    Alcotest.(check int) (what ^ ": count exact") n (H.count h);
    Alcotest.(check int) (what ^ ": buckets sum to count") n
      (Array.fold_left ( + ) 0 h.H.counts);
    let exact = float_of_int !exact /. 1e9 in
    let err = abs_float (H.sum h -. exact) /. exact in
    if err > 0.03 then
      Alcotest.failf "%s: sampled sum %.6f s is %.1f%% off the exact %.6f s" what
        (H.sum h) (100.0 *. err) exact
  in
  let rng = Rng.create 0x5A3F1EL in
  let iid = Array.init n (fun _ -> 50 + Rng.int rng 951) in
  check "i.i.d." (Array.get iid);
  let pool i = if i mod 64 = 5 then 2000 else 100 in
  check "period 64" pool;
  let strided = ref 0 and exact = ref 0 in
  for i = 0 to n - 1 do
    exact := !exact + pool i;
    strided := !strided + pool (i - (i mod Obs.Span.sample_period))
  done;
  Alcotest.(check bool) "a fixed stride misses the slow record" true
    (float_of_int !strided < 0.8 *. float_of_int !exact)

(* An exact stage records every call's own duration. *)
let test_span_exact_stage () =
  let r = R.create () in
  let st = Obs.Span.stage r "gate" in
  List.iter (Obs.Span.observe_ns st) [ 100; 3000; 7 ];
  let h = S.histogram (R.snapshot r) (Obs.Span.metric_of_stage "gate") in
  Alcotest.(check int) "count" 3 (H.count h);
  Alcotest.(check (float 0.0)) "sum" (3107.0 /. 1e9) (H.sum h)

let test_span_records_histogram () =
  let r = R.create () in
  let x = Obs.Span.with_ r "match" (fun () -> 41 + 1) in
  Alcotest.(check int) "result through" 42 x;
  Alcotest.(check string) "metric name" "sanids_stage_match_seconds"
    (Obs.Span.metric_of_stage "match");
  let s = R.snapshot r in
  Alcotest.(check int) "one observation" 1
    (H.count (S.histogram s "sanids_stage_match_seconds"))

let test_span_records_on_raise () =
  let r = R.create () in
  (match Obs.Span.with_ r "analyze" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  Alcotest.(check int) "duration recorded anyway" 1
    (H.count (S.histogram (R.snapshot r) (Obs.Span.metric_of_stage "analyze")))

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let test_span_tracing_and_sampling () =
  let path = Filename.temp_file "sanids_spans" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let tracer = Obs.Span.tracer ~sample:2 oc in
      let r = R.create () in
      for _ = 1 to 5 do
        Obs.Span.with_ ~tracer r "match" (fun () -> ())
      done;
      Obs.Span.flush tracer;
      close_out oc;
      (* every 2nd of 5 spans: the 2nd and the 4th *)
      Alcotest.(check int) "emitted" 2 (Obs.Span.emitted tracer);
      let lines = read_lines path in
      Alcotest.(check int) "lines on disk" 2 (List.length lines);
      List.iteri
        (fun i line ->
          let prefix = "{\"span\":\"match\",\"ts\":" in
          Alcotest.(check bool)
            (Printf.sprintf "line %d shape" i)
            true
            (String.length line > String.length prefix
            && String.sub line 0 (String.length prefix) = prefix
            && line.[String.length line - 1] = '}');
          let seq = Printf.sprintf "\"seq\":%d}" i in
          let n = String.length seq and m = String.length line in
          Alcotest.(check bool)
            (Printf.sprintf "line %d seq" i)
            true
            (String.sub line (m - n) n = seq))
        lines);
  match Obs.Span.tracer ~sample:0 stdout with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sample 0 must raise"

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "basics" `Quick test_hist_basics;
          Alcotest.test_case "bucketing" `Quick test_hist_bucketing;
          Alcotest.test_case "ns bucket boundaries" `Quick test_hist_ns_boundaries;
          Alcotest.test_case "quantile upper bound" `Quick test_hist_quantile_upper_bound;
          Alcotest.test_case "clamps garbage" `Quick test_hist_clamps_garbage;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "validation" `Quick test_registry_validation;
          Alcotest.test_case "hit path" `Quick test_registry_hit_path;
          Alcotest.test_case "snapshot and reset" `Quick test_registry_snapshot_reset;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "defaults and kinds" `Quick test_snapshot_defaults_and_kinds;
        ] );
      ( "export",
        [
          Alcotest.test_case "prometheus" `Quick test_prometheus_export;
          Alcotest.test_case "jsonl" `Quick test_jsonl_export;
          Alcotest.test_case "jsonl escapes label values" `Quick
            test_jsonl_escapes_labels;
          Alcotest.test_case "jsonl exact and non-finite" `Quick test_jsonl_exact;
        ] );
      ( "span",
        [
          Alcotest.test_case "records histogram" `Quick test_span_records_histogram;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "sampled sum" `Quick test_span_sampled_sum;
          Alcotest.test_case "exact stage" `Quick test_span_exact_stage;
          Alcotest.test_case "tracing and sampling" `Quick test_span_tracing_and_sampling;
        ] );
    ]
