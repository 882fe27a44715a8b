(* Efficiency claim (contribution (b)) — our NIDS vs a reference-[5]
   style analyzer.

   Same inputs through two configurations of the same pipeline:
   - pruned: the cheap suspicion gate + binary extraction decide which
     bytes reach the disassembler (our system);
   - unpruned: the whole payload of every packet is disassembled and
     matched (the way [5] consumes entire binaries).

   The paper's numbers: ~2-3 s per exploit and ~6.5 s per 22 KB sample on
   their pipeline vs ~40 s reported by [5]. Absolute times differ on
   modern hardware; the shape to reproduce is pruned << unpruned with
   identical verdicts. *)

open Sanids_nids
open Sanids_exploits
module Obs = Sanids_obs

let inputs () =
  let rng = Rng.create 0x7AB1E0EFL in
  let exploit =
    Exploit_gen.http_exploit rng ~shellcode:(Shellcodes.find "classic").Shellcodes.code
  in
  let poly =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  let benign =
    String.concat ""
      (List.init 40 (fun _ -> Sanids_workload.Benign_gen.payload rng))
  in
  [
    ("http exploit", exploit);
    ("polymorphic shellcode", poly);
    ("iis-asp request", Iis_asp.request ());
    ("benign bundle", benign);
    ("netsky.p (22KB)", List.assoc "netsky.p" (Netsky.variants ()));
  ]

(* Worm-outbreak replay: the suspicious set explodes and millions of
   near-identical payloads hit the analyzer.  The verdict cache must turn
   that repetition into O(1) lookups without changing a single verdict. *)
let outbreak_replay ~packets () =
  Bench_util.sub
    (Printf.sprintf "Outbreak replay (%d packets): verdict cache on vs off"
       packets);
  let rng = Rng.create 0x0B0B0B0BL in
  (* an outbreak is the same few payloads delivered over and over *)
  let variants =
    [|
      Exploit_gen.http_exploit rng
        ~shellcode:(Shellcodes.find "classic").Shellcodes.code;
      Code_red.request ();
      Iis_asp.request ();
      (Sanids_polymorph.Admmutate.generate rng
         ~payload:(Shellcodes.find "classic").Shellcodes.code)
        .Sanids_polymorph.Admmutate.code;
    |]
  in
  let stream =
    List.init packets (fun i -> variants.(i mod Array.length variants))
  in
  let cached = Pipeline.create (Config.default |> Config.with_classification false) in
  let uncached =
    Pipeline.create
      (Config.default |> Config.with_classification false
     |> Config.with_verdict_cache 0)
  in
  (* per-packet latency into an obs histogram: the bench's timing source
     is the same machinery the NIDS exports at runtime *)
  let replay p =
    let h = Obs.Histogram.create () in
    let alerts =
      List.fold_left
        (fun acc payload ->
          acc
          + List.length
              (Bench_util.time_into h (fun () -> Pipeline.analyze_payload p payload)))
        0 stream
    in
    (alerts, Obs.Histogram.snap h)
  in
  let ac, hc = replay cached in
  let au, hu = replay uncached in
  let tc = Obs.Histogram.sum hc and tu = Obs.Histogram.sum hu in
  let throughput t =
    if t > 0.0 then Printf.sprintf "%.0f pkt/s" (float_of_int packets /. t)
    else "n/a"
  in
  let sc = Pipeline.stats cached in
  Bench_util.table
    [ "config"; "time"; "throughput"; "alerts"; "cache h/m"; "per-packet" ]
    [
      [
        "verdict cache on";
        Bench_util.seconds hc;
        throughput tc;
        string_of_int ac;
        Printf.sprintf "%d/%d" sc.Stats.verdict_cache_hits
          sc.Stats.verdict_cache_misses;
        Bench_util.hist_summary hc;
      ];
      [
        "verdict cache off";
        Bench_util.seconds hu;
        throughput tu;
        string_of_int au;
        "-";
        Bench_util.hist_summary hu;
      ];
    ];
  Bench_util.note "speedup %.1fx, verdicts %s (%d vs %d alerts)"
    (tu /. Float.max tc 1e-9)
    (if ac = au then "identical" else "DIFFER")
    ac au

(* Sled-heavy input: every candidate entry decodes through the same NOP
   sled, which is exactly what the per-offset decode memo deduplicates. *)
let decode_memo ~sled () =
  Bench_util.sub
    (Printf.sprintf "Decode memo on sled-heavy input (%d-byte sled)" sled);
  let rng = Rng.create 0x51EDBEEFL in
  let code =
    String.make sled '\x90'
    ^ (Sanids_polymorph.Admmutate.generate rng
         ~payload:(Shellcodes.find "classic").Shellcodes.code)
        .Sanids_polymorph.Admmutate.code
  in
  let entries = Sanids_ir.Trace.entry_points code in
  let templates = Sanids_semantic.Template_lib.default_set in
  (* per-stage (trace recovery only): every entry re-walks the sled.  The
     direct row decodes every step afresh and also allocates a fresh walk
     scratch (three code-length arrays) per trace, so its speedup counts
     allocation as well as decoding *)
  let reps = 20 in
  let _, tb_direct =
    Bench_util.time (fun () ->
        for _ = 1 to reps do
          List.iter (fun e -> ignore (Sanids_ir.Trace.build code ~entry:e)) entries
        done)
  in
  let _, tb_memo =
    Bench_util.time (fun () ->
        for _ = 1 to reps do
          let cache = Sanids_ir.Icache.create code in
          List.iter
            (fun e -> ignore (Sanids_ir.Trace.build_cached cache ~entry:e))
            entries
        done)
  in
  (* full scan (trace recovery + matching) with decode accounting read
     back from a throwaway metrics registry *)
  let reg = Obs.Registry.create () in
  let _, tm =
    Bench_util.time (fun () ->
        Sanids_semantic.Matcher.scan ~entries ~metrics:reg ~templates code)
  in
  let snap = Obs.Registry.snapshot reg in
  let hits =
    Obs.Snapshot.counter_value snap Sanids_semantic.Matcher.decode_memo_hits
  in
  let misses =
    Obs.Snapshot.counter_value snap Sanids_semantic.Matcher.decode_memo_misses
  in
  let total = hits + misses in
  Bench_util.table
    [ "stage"; "direct"; "memoized"; "speedup" ]
    [
      [
        Printf.sprintf "trace recovery x%d entries" (List.length entries);
        Printf.sprintf "%.4f s" tb_direct;
        Printf.sprintf "%.4f s" tb_memo;
        Printf.sprintf "%.1fx" (tb_direct /. Float.max tb_memo 1e-9);
      ];
    ];
  Bench_util.note
    "direct row includes per-trace scratch allocation; full scan %.4f s, \
     decode-memo hit ratio %.2f (%d of %d lookups decoded)"
    tm
    (float_of_int hits /. Float.max (float_of_int total) 1.0)
    misses total

let run ?(outbreak = 240) ?(sled = 512) () =
  Bench_util.hr "Efficiency: pruned pipeline vs whole-payload analysis ([5]-style)";
  let pruned = Pipeline.create (Config.default |> Config.with_classification false) in
  let unpruned =
    Pipeline.create
      (Config.default |> Config.with_classification false |> Config.with_extraction false)
  in
  let rows =
    List.map
      (fun (name, payload) ->
        let rp, tp = Bench_util.time (fun () -> Pipeline.analyze_payload pruned payload) in
        let ru, tu = Bench_util.time (fun () -> Pipeline.analyze_payload unpruned payload) in
        let verdict results = results <> [] in
        [
          name;
          Printf.sprintf "%d B" (String.length payload);
          Printf.sprintf "%.4f s" tp;
          Printf.sprintf "%.4f s" tu;
          (if tu > 0.0 then Printf.sprintf "%.1fx" (tu /. Float.max tp 1e-6) else "n/a");
          (if verdict rp = verdict ru then "agree" else "DISAGREE");
        ])
      (inputs ())
  in
  Bench_util.table
    [ "input"; "size"; "pruned"; "unpruned ([5]-style)"; "speedup"; "verdicts" ]
    rows;
  Bench_util.note
    "paper shape: extraction pruning keeps semantic analysis affordable (~6.5s vs ~40s in 2006 terms) without changing verdicts";
  outbreak_replay ~packets:outbreak ();
  decode_memo ~sled ()
