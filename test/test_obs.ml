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

(* ------------------------------------------------------------------ *)
(* Spans *)

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
          Alcotest.test_case "quantile upper bound" `Quick test_hist_quantile_upper_bound;
          Alcotest.test_case "clamps garbage" `Quick test_hist_clamps_garbage;
          Alcotest.test_case "merge" `Quick test_hist_merge;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "validation" `Quick test_registry_validation;
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
        ] );
      ( "span",
        [
          Alcotest.test_case "records histogram" `Quick test_span_records_histogram;
          Alcotest.test_case "records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "tracing and sampling" `Quick test_span_tracing_and_sampling;
        ] );
    ]
