(* Bench-trajectory checker: `check_bench.exe FRESH BASELINE`.

   Parses both documents, validates that each carries the
   sanids-bench/1 schema with every required key under its own object,
   then compares each workload's packets/sec in FRESH (a just-emitted
   --json document) against the committed BASELINE (BENCH_<pr>.json).
   The tolerance is deliberately loose — CI boxes and dev laptops
   differ by integer factors — so only a large regression (fresh < 10%
   of baseline) fails.  Exit 0 clean, exit 1 loud. *)

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

let workloads =
  [
    "outbreak_replay";
    "stream_shedding";
    "decode";
    "serve_steady_state";
    "confirm_overhead";
    "cluster_latency";
    "static_refute";
  ]

let workload_pps ~file doc w = number ~file doc [ "workloads"; w; "packets_per_sec" ]

(* Numeric keys each row must carry beyond packets_per_sec.  The replay
   row carries per-stage quantiles read back from the obs histograms.
   The confirmation row carries its outcome counts: a baseline where
   the decoder corpus stopped confirming is not a baseline.  The
   cluster row carries both detection times: a baseline where
   federation stopped detecting (or was never compared against the
   monolith) is not a baseline.  The static-refutation row carries its
   outcome count and the avoided fraction: a baseline where decoys
   stopped skipping the emulator is not a baseline. *)
let required =
  [ ("outbreak_replay", [ "minor_words_per_packet" ]) ]
  @ List.map
      (fun stage -> ("outbreak_replay", [ "stages"; stage; "p95_s" ]))
      [ "classify"; "extract"; "match"; "analyze" ]
  @ [
      ("confirm_overhead", [ "confirmed" ]);
      ("confirm_overhead", [ "refuted" ]);
      ("cluster_latency", [ "detect_s" ]);
      ("cluster_latency", [ "detect_monolith_s" ]);
      ("static_refute", [ "static_refuted" ]);
      ("static_refute", [ "avoided_fraction" ]);
    ]

let validate_schema ~file doc =
  (match Json.to_string_opt (lookup ~file doc [ "schema" ]) with
  | Some "sanids-bench/1" -> ()
  | _ -> die "%s: schema is not \"sanids-bench/1\"" file);
  if Json.to_int_opt (lookup ~file doc [ "pr" ]) = None then
    die "%s: pr is not an integer" file;
  List.iter (fun w -> ignore (workload_pps ~file doc w)) workloads;
  List.iter
    (fun (w, path) -> ignore (number ~file doc ("workloads" :: w :: path)))
    required

let () =
  (match Sys.argv with
  | [| _; _; _ |] -> ()
  | _ -> die "usage: check_bench FRESH.json BASELINE.json");
  let fresh_file = Sys.argv.(1) and base_file = Sys.argv.(2) in
  let fresh = read_doc fresh_file and base = read_doc base_file in
  validate_schema ~file:fresh_file fresh;
  validate_schema ~file:base_file base;
  let tolerance = 0.10 in
  let failures =
    List.filter_map
      (fun w ->
        let fpps = workload_pps ~file:fresh_file fresh w in
        let bpps = workload_pps ~file:base_file base w in
        Printf.printf "check_bench: %-16s fresh %10.0f pkt/s, baseline %10.0f pkt/s\n"
          w fpps bpps;
        if fpps < tolerance *. bpps then
          Some
            (Printf.sprintf "%s: %.0f pkt/s is below %.0f%% of baseline %.0f pkt/s"
               w fpps (100.0 *. tolerance) bpps)
        else None)
      workloads
  in
  match failures with
  | [] -> print_endline "check_bench: OK"
  | fs ->
      List.iter (fun f -> prerr_endline ("check_bench: REGRESSION " ^ f)) fs;
      exit 1
