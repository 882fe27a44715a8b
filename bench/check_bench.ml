(* Bench-trajectory checker: `check_bench.exe FRESH BASELINE`.

   Parses both documents, validates that each carries the
   sanids-bench/2 schema with every required key under its own object,
   then gates each row's median packets/sec in FRESH (a just-emitted
   --json document) on the spread recorded in the committed BASELINE
   (BENCH_<pr>.json): see [threshold].  Exit 0 clean, exit 1 loud. *)

module Json = Sanids_util.Json

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("check_bench: " ^ m); exit 1) fmt

let read_doc path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> die "cannot read %s: %s" path m
  | text -> (
      match Json.of_string text with
      | Ok doc -> doc
      | Error e -> die "%s: not JSON: %s" path e)

(* [lookup ~file doc ["a"; "b"]] is the value at a.b, or a loud exit. *)
let lookup ~file doc path =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some doc) path with
  | Some v -> v
  | None -> die "%s: missing %s" file (String.concat "." path)

let number ~file doc path =
  match Json.to_float_opt (lookup ~file doc path) with
  | Some f -> f
  | None -> die "%s: %s is not a number" file (String.concat "." path)

(* Each row with its drift allowance: the share of the baseline median
   below which [threshold] never goes.  A process's runs share the
   host's state, so its quartiles miss how far a whole process drifts.
   Over half an hour of repeated smoke runs on a shared 2-core VM,
   clean medians fell to 0.37 (stream_shedding, whose worker domains
   need both cores), 0.58 (confirm_overhead) and 0.59 (cluster_latency)
   of a typical baseline. *)
let workloads =
  [ ("stream_shedding", 0.30); ("confirm_overhead", 0.55); ("cluster_latency", 0.55) ]

let pps ~file doc w stat = number ~file doc [ "workloads"; w; "packets_per_sec"; stat ]

(* Numeric keys each row must carry beyond its packets/sec median and
   quartiles.  The stream row carries its shed accounting.  The
   confirmation row carries its outcome counts: a baseline where the
   decoder corpus stopped confirming is not a baseline.  The cluster
   row carries both detection times: a baseline where federation
   stopped detecting (or was never compared against the monolith) is
   not a baseline. *)
let required =
  [
    ("stream_shedding", [ "processed" ]);
    ("stream_shedding", [ "shed" ]);
    ("confirm_overhead", [ "confirmed" ]);
    ("confirm_overhead", [ "refuted" ]);
    ("cluster_latency", [ "detect_s" ]);
    ("cluster_latency", [ "detect_monolith_s" ]);
  ]

let validate_schema ~file doc =
  (match Json.to_string_opt (lookup ~file doc [ "schema" ]) with
  | Some "sanids-bench/2" -> ()
  | _ -> die "%s: schema is not \"sanids-bench/2\"" file);
  if Json.to_int_opt (lookup ~file doc [ "pr" ]) = None then
    die "%s: pr is not an integer" file;
  List.iter
    (fun (w, _) ->
      let q1 = pps ~file doc w "q1" and q3 = pps ~file doc w "q3" in
      let median = pps ~file doc w "median" in
      if not (q1 <= median && median <= q3) then
        die "%s: %s quartiles out of order" file w;
      ignore (number ~file doc [ "workloads"; w; "packets_per_sec"; "k" ]))
    workloads;
  List.iter
    (fun (w, path) -> ignore (number ~file doc ("workloads" :: w :: path)))
    required

(* The lowest fresh median a row may show: Tukey's lower fence over
   the baseline's runs (q1 - 1.5 IQR), no higher than the row's drift
   allowance and no lower than the old fixed tolerance, 10% of the
   baseline median. *)
let threshold ~drift ~median ~q1 ~q3 =
  Float.max (0.1 *. median) (Float.min (q1 -. (1.5 *. (q3 -. q1))) (drift *. median))

let () =
  (match Sys.argv with
  | [| _; _; _ |] -> ()
  | _ -> die "usage: check_bench FRESH.json BASELINE.json");
  let fresh_file = Sys.argv.(1) and base_file = Sys.argv.(2) in
  let fresh = read_doc fresh_file and base = read_doc base_file in
  validate_schema ~file:fresh_file fresh;
  validate_schema ~file:base_file base;
  let failures =
    List.filter_map
      (fun (w, drift) ->
        let fresh_median = pps ~file:fresh_file fresh w "median" in
        let base = pps ~file:base_file base w in
        let median = base "median" in
        let limit = threshold ~drift ~median ~q1:(base "q1") ~q3:(base "q3") in
        Printf.printf
          "check_bench: %-16s fresh median %8.0f pkt/s, threshold %8.0f (%.2f of \
           baseline median %.0f)\n"
          w fresh_median limit (limit /. median) median;
        if fresh_median < limit then
          Some
            (Printf.sprintf "%s: median %.0f pkt/s is below the threshold %.0f pkt/s"
               w fresh_median limit)
        else None)
      workloads
  in
  match failures with
  | [] -> print_endline "check_bench: OK"
  | fs ->
      List.iter (fun f -> prerr_endline ("check_bench: REGRESSION " ^ f)) fs;
      exit 1
