(* Tests for the analysis fast path: the LRU, the decode-memo instruction
   cache, memoized-vs-direct trace building, the decode memo's hit
   accounting, the Aho–Corasick data prefilter, and the pipeline verdict cache — all
   under the exactness contract: caching must never change a verdict. *)

open Sanids_x86
open Sanids_ir
open Sanids_semantic
open Sanids_net
open Sanids_nids
open Sanids_exploits
module Obs = Sanids_obs

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction_order () =
  let l = Lru.create 2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Alcotest.(check (option int)) "a present" (Some 1) (Lru.find l "a");
  (* "a" was just promoted, so adding "c" evicts "b" *)
  Lru.add l "c" 3;
  Alcotest.(check bool) "b evicted" false (Lru.mem l "b");
  Alcotest.(check bool) "a survives" true (Lru.mem l "a");
  Alcotest.(check bool) "c present" true (Lru.mem l "c");
  Alcotest.(check int) "one eviction" 1 (Lru.evictions l);
  Alcotest.(check int) "at capacity" 2 (Lru.length l)

let test_lru_update_no_eviction () =
  let l = Lru.create 2 in
  Lru.add l "a" 1;
  Lru.add l "b" 2;
  Lru.add l "a" 10;
  Alcotest.(check (option int)) "updated" (Some 10) (Lru.find l "a");
  Alcotest.(check int) "no eviction on update" 0 (Lru.evictions l);
  Alcotest.(check int) "still two" 2 (Lru.length l)

let test_lru_single_slot () =
  let l = Lru.create 1 in
  Lru.add l 1 "x";
  Lru.add l 2 "y";
  Alcotest.(check bool) "1 evicted" false (Lru.mem l 1);
  Alcotest.(check (option string)) "2 present" (Some "y") (Lru.find l 2);
  Lru.clear l;
  Alcotest.(check int) "cleared" 0 (Lru.length l)

let test_lru_rejects_zero_capacity () =
  Alcotest.check_raises "cap 0" (Invalid_argument "Lru.create: capacity must be positive")
    (fun () -> ignore (Lru.create 0))

(* ------------------------------------------------------------------ *)
(* Icache: memoized decode agrees with direct decode *)

let test_icache_agrees_with_decode () =
  let rng = Rng.create 0xFA57L in
  let code =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  let c = Icache.create code in
  for off = 0 to String.length code - 1 do
    (* twice: second pass must hit the memo and agree *)
    for _pass = 1 to 2 do
      match (Icache.decode c off, Decode.at code off) with
      | None, None -> ()
      | Some e, Some d ->
          if e.Icache.insn <> d.Decode.insn || e.Icache.len <> d.Decode.len then
            Alcotest.failf "icache disagrees with Decode.at at 0x%x" off;
          if Array.to_list e.Icache.sems <> Sem.lift d.Decode.insn then
            Alcotest.failf "icache sems disagree at 0x%x" off
      | Some _, None | None, Some _ ->
          Alcotest.failf "icache presence disagrees at 0x%x" off
    done
  done;
  Alcotest.(check int) "every offset decoded once" (String.length code)
    (Icache.misses c);
  Alcotest.(check int) "second pass all hits" (String.length code)
    (Icache.hits c)

let test_icache_out_of_range () =
  let c = Icache.create "\x90" in
  Alcotest.(check bool) "negative" true (Icache.decode c (-1) = None);
  Alcotest.(check bool) "past end" true (Icache.decode c 5 = None);
  Alcotest.(check int) "range checks are not lookups" 0
    (Icache.hits c + Icache.misses c)

(* ------------------------------------------------------------------ *)
(* Trace.build_cached ≡ Trace.build *)

let same_trace name (a : Trace.t) (b : Trace.t) =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i (s : Trace.step) ->
      let s' = b.(i) in
      if
        s.Trace.off <> s'.Trace.off
        || s.Trace.len <> s'.Trace.len
        || s.Trace.insn <> s'.Trace.insn
        || Array.to_list s.Trace.sems <> Array.to_list s'.Trace.sems
      then Alcotest.failf "%s: step %d differs" name i)
    a

let test_build_cached_equiv_structured () =
  let rng = Rng.create 0xFA58L in
  let code =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  let cache = Icache.create code in
  List.iter
    (fun entry ->
      same_trace
        (Printf.sprintf "entry %d" entry)
        (Trace.build code ~entry)
        (Trace.build_cached cache ~entry))
    (Trace.entry_points code)

(* The walk scratch is per walk: after a second walk over the same
   cache, offsets only the first walk visited no longer index, and every
   later walk over the already-walked cache is still the plain build. *)
let test_walk_scratch_per_walk () =
  let rng = Rng.create 0xFA59L in
  let code =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  let cache = Icache.create code in
  let first = Trace.build_cached cache ~entry:0 in
  Array.iteri
    (fun i (s : Trace.step) ->
      Alcotest.(check int) "indexed" i (Icache.step_index cache s.Trace.off))
    first;
  let last = String.length code - 1 in
  let second = Trace.build_cached cache ~entry:last in
  Array.iter
    (fun (s : Trace.step) ->
      if not (Array.exists (fun (s' : Trace.step) -> s'.Trace.off = s.Trace.off) second)
      then
        Alcotest.(check int) "stale offset forgotten" (-1)
          (Icache.step_index cache s.Trace.off))
    first;
  Alcotest.(check int) "out of range" (-1) (Icache.step_index cache (String.length code));
  List.iter
    (fun entry ->
      same_trace
        (Printf.sprintf "rewalked entry %d" entry)
        (Trace.build code ~entry)
        (Trace.build_cached cache ~entry))
    (Trace.entry_points code)

let prop_build_cached_equiv =
  QCheck2.Test.make ~name:"memoized Trace.build ≡ unmemoized on random regions"
    ~count:80
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun code ->
      let cache = Icache.create code in
      let entries = if String.length code = 0 then [ 0 ] else
        List.init (min 8 (String.length code)) (fun i -> i)
      in
      List.for_all
        (fun entry ->
          let a = Trace.build code ~entry in
          let b = Trace.build_cached cache ~entry in
          Array.length a = Array.length b
          && Array.for_all2
               (fun (s : Trace.step) (s' : Trace.step) ->
                 s.Trace.off = s'.Trace.off
                 && s.Trace.len = s'.Trace.len
                 && s.Trace.insn = s'.Trace.insn
                 && Array.to_list s.Trace.sems = Array.to_list s'.Trace.sems)
               a b)
        entries)

(* ------------------------------------------------------------------ *)
(* Matcher.scan: the decode memo actually wins *)

let i x = Asm.I x

let decoder_with_sled sled_len =
  String.make sled_len '\x90'
  ^ Asm.assemble
      [
        Asm.Label "decode";
        i (Insn.Arith (Insn.Xor, Insn.S8bit, Insn.Mem (Insn.mem_base Reg.EAX), Insn.Imm 0x95l));
        i (Insn.Inc (Insn.S32bit, Insn.Reg Reg.EAX));
        Asm.Loop_to "decode";
      ]

let test_decode_memo_wins_on_sled () =
  (* explicit entry enumeration, as the ablation harness uses: every
     candidate entry decodes through the same sled, so without the memo
     an n-byte sled costs ~entries × trace-length decodes *)
  let code = decoder_with_sled 96 in
  let reg = Obs.Registry.create () in
  let entries = Trace.entry_points code in
  let results =
    Matcher.scan ~entries ~metrics:reg ~templates:Template_lib.default_set code
  in
  let snap = Obs.Registry.snapshot reg in
  let hits = Obs.Snapshot.counter_value snap Matcher.decode_memo_hits in
  let misses = Obs.Snapshot.counter_value snap Matcher.decode_memo_misses in
  Alcotest.(check bool) "decoder found through sled" true (results <> []);
  Alcotest.(check bool) "memo hits dominate" true (hits > misses);
  (* with sharing, actual decodes are bounded by the region size *)
  Alcotest.(check bool) "misses bounded by region size" true
    (misses <= String.length code)

let test_scan_budget_exhaustion_counted () =
  (* every offset of a long all-NOP region as an explicit entry: each
     trace is ~1024 steps, so the 4n work budget drains long before the
     entry list does, and no template ever matches *)
  let code = String.make 4096 '\x90' in
  let reg = Obs.Registry.create () in
  let entries = List.init (String.length code) (fun i -> i) in
  ignore
    (Matcher.scan ~entries ~metrics:reg ~templates:Template_lib.xor_decrypt code);
  Alcotest.(check int) "budget exhaustion recorded" 1
    (Obs.Snapshot.counter_value
       (Obs.Registry.snapshot reg)
       Matcher.scan_budget_exhausted)

let test_data_prefilter () =
  let base = List.hd Template_lib.xor_decrypt in
  let gated = { base with Template.data = [ "MAIL FROM:" ] } in
  let code = decoder_with_sled 8 in
  Alcotest.(check bool) "data requirement unmet: no match" true
    (Matcher.scan ~templates:[ gated ] code = []);
  Alcotest.(check bool) "data requirement met: matches" true
    (Matcher.scan ~templates:[ gated ] (code ^ "MAIL FROM:") <> []);
  (* multi-template pass: one gated out, one through, in the same scan *)
  let rs = Matcher.scan ~templates:[ gated; base ] code in
  Alcotest.(check int) "ungated variant still matches" 1 (List.length rs)

(* ------------------------------------------------------------------ *)
(* Pipeline verdict cache: exactness on seeded workloads *)

let clients = Ipaddr.prefix_of_string "10.1.0.0/16"
let servers = Ipaddr.prefix_of_string "10.2.0.0/16"
let unused_space = Ipaddr.prefix_of_string "10.200.0.0/16"

let base_config = Config.default |> Config.with_unused [ unused_space ]

let alerts_with cfg pkts = Pipeline.process_packets (Pipeline.create cfg) pkts

let check_cache_equiv name pkts =
  let cached = Pipeline.create base_config in
  let uncached = Pipeline.create (Config.with_verdict_cache 0 base_config) in
  let a = Pipeline.process_packets cached pkts in
  let b = Pipeline.process_packets uncached pkts in
  Alcotest.(check int) (name ^ ": same alert count") (List.length b)
    (List.length a);
  Alcotest.(check bool) (name ^ ": identical alerts") true (a = b);
  Alcotest.(check int) (name ^ ": uncached pipeline never consults cache") 0
    ((Pipeline.stats uncached).Stats.verdict_cache_hits
    + (Pipeline.stats uncached).Stats.verdict_cache_misses);
  (cached, a)

let test_verdict_cache_equiv_outbreak () =
  let rng = Rng.create 0xCA11L in
  let pkts, truth =
    Sanids_workload.Worm_gen.code_red_trace rng ~benign:300 ~instances:5
      ~scans_per_instance:6 ~clients ~servers ~unused:unused_space
      ~duration:60.0
  in
  let cached, alerts = check_cache_equiv "code-red outbreak" pkts in
  Alcotest.(check int) "all instances alerted"
    truth.Sanids_workload.Worm_gen.crii_instances
    (List.length
       (List.filter (fun a -> a.Alert.template = "code-red-ii") alerts));
  (* outbreak deliveries repeat the same payload: the cache must hit *)
  Alcotest.(check bool) "cache hits on repeated payloads" true
    ((Pipeline.stats cached).Stats.verdict_cache_hits > 0)

let test_verdict_cache_equiv_slammer () =
  let rng = Rng.create 0xCA12L in
  let pkts, _ =
    Sanids_workload.Worm_gen.slammer_trace rng ~benign:300 ~infected:3
      ~sprays_per_host:6 ~clients ~servers ~unused:unused_space ~duration:60.0
  in
  ignore (check_cache_equiv "slammer outbreak" pkts)

let test_verdict_cache_equiv_benign () =
  let rng = Rng.create 0xCA13L in
  let pkts =
    Sanids_workload.Benign_gen.packets rng ~n:300 ~t0:0.0 ~clients ~servers
  in
  let cfg = Config.with_classification false base_config in
  let a = alerts_with cfg pkts in
  let b = alerts_with (Config.with_verdict_cache 0 cfg) pkts in
  Alcotest.(check int) "benign: both quiet" 0 (List.length a);
  Alcotest.(check bool) "benign: identical" true (a = b)

let test_verdict_cache_counters () =
  let nids = Pipeline.create (Config.with_classification false Config.default) in
  let payload = Code_red.request () in
  ignore (Pipeline.analyze_payload nids payload);
  ignore (Pipeline.analyze_payload nids payload);
  ignore (Pipeline.analyze_payload nids payload);
  let s = Pipeline.stats nids in
  Alcotest.(check int) "one miss" 1 s.Stats.verdict_cache_misses;
  Alcotest.(check int) "two hits" 2 s.Stats.verdict_cache_hits;
  Alcotest.(check bool) "decode memo counted" true
    (s.Stats.decode_memo_hits + s.Stats.decode_memo_misses > 0);
  let rendered = Format.asprintf "%a" Stats.pp s in
  Alcotest.(check bool) "pp mentions vcache" true
    (let rec has i =
       i + 7 <= String.length rendered
       && (String.sub rendered i 7 = "vcache=" || has (i + 1))
     in
     has 0)

let test_verdict_cache_eviction_counted () =
  let cfg =
    Config.default |> Config.with_classification false
    |> Config.with_verdict_cache 1
  in
  let nids = Pipeline.create cfg in
  let rng = Rng.create 0xCA14L in
  let p1 = Code_red.request () in
  let p2 =
    Exploit_gen.http_exploit rng
      ~shellcode:(Shellcodes.find "classic").Shellcodes.code
  in
  ignore (Pipeline.analyze_payload nids p1);
  ignore (Pipeline.analyze_payload nids p2);
  ignore (Pipeline.analyze_payload nids p1);
  let s = Pipeline.stats nids in
  Alcotest.(check bool) "evictions counted" true
    (s.Stats.verdict_cache_evictions >= 1);
  Alcotest.(check int) "no spurious hits with cap 1" 0 s.Stats.verdict_cache_hits

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_build_cached_equiv ]

let () =
  Alcotest.run "fastpath"
    [
      ( "lru",
        [
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "update" `Quick test_lru_update_no_eviction;
          Alcotest.test_case "single slot" `Quick test_lru_single_slot;
          Alcotest.test_case "zero capacity" `Quick test_lru_rejects_zero_capacity;
        ] );
      ( "icache",
        [
          Alcotest.test_case "agrees with decode" `Quick test_icache_agrees_with_decode;
          Alcotest.test_case "out of range" `Quick test_icache_out_of_range;
        ] );
      ( "trace-memo",
        [
          Alcotest.test_case "structured equivalence" `Quick
            test_build_cached_equiv_structured;
          Alcotest.test_case "walk scratch is per walk" `Quick
            test_walk_scratch_per_walk;
        ] );
      ( "scan",
        [
          Alcotest.test_case "decode memo wins on sled" `Quick
            test_decode_memo_wins_on_sled;
          Alcotest.test_case "budget exhaustion counted" `Quick
            test_scan_budget_exhaustion_counted;
          Alcotest.test_case "data prefilter" `Quick test_data_prefilter;
        ] );
      ( "verdict-cache",
        [
          Alcotest.test_case "outbreak equivalence" `Quick
            test_verdict_cache_equiv_outbreak;
          Alcotest.test_case "slammer equivalence" `Quick
            test_verdict_cache_equiv_slammer;
          Alcotest.test_case "benign equivalence" `Quick
            test_verdict_cache_equiv_benign;
          Alcotest.test_case "counters" `Quick test_verdict_cache_counters;
          Alcotest.test_case "eviction counted" `Quick
            test_verdict_cache_eviction_counted;
        ] );
      ("properties", properties);
    ]
