(* Tests for the analysis fast path: the LRU, the decode-memo instruction
   cache, memoized-vs-direct trace building, the trace gate against the
   plain search, the decode memo's hit accounting, the Aho–Corasick data
   prefilter, and the pipeline verdict cache — all under the exactness
   contract: caching must never change a verdict. *)

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
          if
            e.Icache.off <> off || e.Icache.insn <> d.Decode.insn
            || e.Icache.len <> d.Decode.len
          then
            Alcotest.failf "icache disagrees with Decode.at at 0x%x" off;
          if e.Icache.sems <> Sem.lift d.Decode.insn then
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
(* Trace.walk ≡ Trace.build *)

(* The steps of a buffer walk, read back out of the cache. *)
let walked cache ~entry =
  let n = Trace.walk cache ~entry in
  Array.init n (Icache.step cache)

let same_steps (a : Trace.t) (b : Trace.t) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun (s : Trace.step) (s' : Trace.step) ->
         s.Trace.off = s'.Trace.off
         && s.Trace.len = s'.Trace.len
         && s.Trace.insn = s'.Trace.insn
         && s.Trace.sems = s'.Trace.sems
         && s.Trace.kinds = s'.Trace.kinds)
       a b

let same_trace name (a : Trace.t) (b : Trace.t) =
  Alcotest.(check int) (name ^ ": length") (Array.length a) (Array.length b);
  if not (same_steps a b) then Alcotest.failf "%s: steps differ" name

(* A decoder, and a sled whose 1024-step traces grow the walk buffer
   past its first 64 offsets. *)
let test_walk_equiv_structured () =
  let rng = Rng.create 0xFA58L in
  let decoder =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  List.iter
    (fun code ->
      let cache = Icache.create code in
      List.iter
        (fun entry ->
          let cached = walked cache ~entry in
          same_trace (Printf.sprintf "entry %d" entry) (Trace.build code ~entry) cached;
          (* the walk reads back the memo's own records, it copies none *)
          Array.iter
            (fun (s : Trace.step) ->
              match Icache.decode cache s.Trace.off with
              | Some e when e == s -> ()
              | _ ->
                  Alcotest.failf "entry %d: step at 0x%x is not the memo entry" entry
                    s.Trace.off)
            cached)
        (Trace.entry_points code))
    [ decoder; String.make 3000 '\x90' ^ "\xc3" ]

(* The walk scratch is per walk: after a second walk over the same
   cache, offsets only the first walk visited no longer index, and every
   later walk over the already-walked cache is still the plain build.
   Reading steps back is not a memo lookup. *)
let test_walk_scratch_per_walk () =
  let rng = Rng.create 0xFA59L in
  let code =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
  in
  let cache = Icache.create code in
  let n = Trace.walk cache ~entry:0 in
  let lookups = Icache.hits cache + Icache.misses cache in
  let first = Array.init n (Icache.step cache) in
  Alcotest.(check int) "read-back is not a lookup" lookups
    (Icache.hits cache + Icache.misses cache);
  Array.iteri
    (fun i (s : Trace.step) ->
      Alcotest.(check int) "indexed" i (Icache.step_index cache s.Trace.off))
    first;
  let last = String.length code - 1 in
  let second = walked cache ~entry:last in
  Array.iter
    (fun (s : Trace.step) ->
      if not (Array.exists (fun (s' : Trace.step) -> s'.Trace.off = s.Trace.off) second)
      then
        Alcotest.(check int) "stale offset forgotten" (-1)
          (Icache.step_index cache s.Trace.off))
    first;
  Alcotest.(check int) "out of range" (-1) (Icache.step_index cache (String.length code));
  Alcotest.(check int) "out-of-range entry walks nothing" 0
    (Trace.walk cache ~entry:(String.length code));
  List.iter
    (fun entry ->
      same_trace
        (Printf.sprintf "rewalked entry %d" entry)
        (Trace.build code ~entry)
        (walked cache ~entry))
    (Trace.entry_points code)

(* "Covered" is the tags only walks write: false everywhere on a fresh
   cache, and after any walks true on exactly the offsets they visited.
   First the walks from the region's entry points (leaving some offsets
   unvisited), then the scan's enumeration: a walk from every offset no
   earlier walk covered.  Each walk's kind union is the OR of its steps'
   kinds. *)
let test_covered_is_walked_union () =
  let rng = Rng.create 0xFA5AL in
  let code =
    (Sanids_polymorph.Admmutate.generate rng
       ~payload:(Shellcodes.find "classic").Shellcodes.code)
      .Sanids_polymorph.Admmutate.code
    ^ Sanids_workload.Adversarial.payload ~kind:Sanids_workload.Adversarial.Jmp_maze
        ~size:300 rng
  in
  let n = String.length code in
  let cache = Icache.create code in
  let walked = Bytes.make n '\000' in
  let check_covered what =
    for off = 0 to n - 1 do
      if Icache.covered cache off <> (Bytes.get walked off = '\001') then
        Alcotest.failf "%s: covered at 0x%x is %b" what off (Icache.covered cache off)
    done
  in
  check_covered "fresh cache";
  let walk entry =
    let len = Trace.walk cache ~entry in
    let union = ref 0 in
    for i = 0 to len - 1 do
      let st = Icache.step cache i in
      Bytes.set walked st.Trace.off '\001';
      union := !union lor st.Trace.kinds
    done;
    Alcotest.(check int) (Printf.sprintf "kind union of the walk from %d" entry) !union
      (Icache.union cache)
  in
  List.iter walk (Trace.entry_points code);
  check_covered "after the entry points' walks";
  Alcotest.(check bool) "some offset left uncovered" true (Bytes.contains walked '\000');
  for off = 0 to n - 1 do
    if not (Icache.covered cache off) then walk off
  done;
  check_covered "after the scan's enumeration"

let prop_walk_equiv =
  QCheck2.Test.make ~name:"memoized Trace.build ≡ unmemoized on random regions"
    ~count:80
    QCheck2.Gen.(string_size (int_range 0 200))
    (fun code ->
      let cache = Icache.create code in
      let entries = if String.length code = 0 then [ 0 ] else
        List.init (min 8 (String.length code)) (fun i -> i)
      in
      List.for_all
        (fun entry -> same_steps (Trace.build code ~entry) (walked cache ~entry))
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

(* The suspicion gate runs ahead of the verdict cache: every payload
   past the gate is one cache lookup, and no other is, and the confirm
   stage opens a span only for an analysis with matches to run. *)
let test_gate_ahead_of_cache () =
  let cfg =
    Config.default |> Config.with_classification false
    |> Config.with_confirm (Some Sanids_confirm.Confirm.default_config)
  in
  let nids = Pipeline.create cfg in
  let pkts =
    Sanids_workload.Benign_gen.packets (Rng.create 0x6A7EL) ~n:400 ~t0:0.0
      ~clients ~servers
  in
  let confirmed_analyses =
    List.fold_left
      (fun n p ->
        let r = Pipeline.analyze_report_slice nids (Packet.payload p) in
        (* the confirm stage runs on the verdicts a full analysis found;
           a hit replays them, and degraded ones come after it *)
        if
          List.exists
            (fun (v : Pipeline.verdict) -> not (v.Pipeline.degraded || v.Pipeline.cached))
            r.Pipeline.verdicts
        then n + 1
        else n)
      0 pkts
  in
  let s = Pipeline.stats nids in
  Alcotest.(check bool) "the gate rejects some payloads" true
    (s.Stats.prefilter_hits < List.length pkts);
  Alcotest.(check int) "cache hits + misses = payloads past the gate"
    s.Stats.prefilter_hits
    (s.Stats.verdict_cache_hits + s.Stats.verdict_cache_misses);
  Alcotest.(check int) "confirm spans = analyses with verdicts to confirm"
    confirmed_analyses
    (Obs.Histogram.count
       (Obs.Snapshot.histogram (Pipeline.snapshot nids) "sanids_stage_confirm_seconds"))

(* Mixed traffic for the cache oracle: a pool of twelve payloads (six
   from the benign default mix, then Code Red II, Slammer, an ADMmutate
   decoder, a decoy decoder, an adversarial bomb, and the decoder with
   the first benign payload appended, so that two payloads share a long
   prefix), dealt 40 times with repetition so that the cache both hits
   and evicts. *)
let cache_oracle_traffic seed =
  let rng = Rng.create (Int64.of_int seed) in
  let shellcode = (Shellcodes.find "classic").Shellcodes.code in
  let module Adv = Sanids_workload.Adversarial in
  let pool = Array.init 6 (fun _ -> Sanids_workload.Benign_gen.payload rng) in
  let decoder =
    (Sanids_polymorph.Admmutate.generate rng ~payload:shellcode).Sanids_polymorph.Admmutate.code
  in
  let pool =
    Array.append pool
      [|
        Code_red.request ();
        Slammer.datagram ();
        decoder;
        Adv.payload ~kind:Adv.Decoy_decoder ~size:1024 rng;
        Adv.payload ~size:1024 rng;
        decoder ^ pool.(0);
      |]
  in
  let src = Ipaddr.nth clients 7 and dst = Ipaddr.nth servers 80 in
  List.init 40 (fun i ->
      Packet.build_tcp ~ts:(float_of_int i) ~src ~dst ~src_port:(1024 + i)
        ~dst_port:80 (Rng.pick rng pool))

(* confirm off/on x {no budget, tight budget + degrade} x cache size.
   Breakers are left out on purpose: a hit skips the breaker's
   bookkeeping, so with a breaker the cached pipeline's breaker state,
   and with it later verdicts, may differ from the uncached one's. *)
let cache_oracle_configs =
  let tight =
    { Budget.max_bytes = 8192; max_insns = 300; max_match_steps = 3000; deadline = 0. }
  in
  List.concat_map
    (fun confirm ->
      List.concat_map
        (fun budget ->
          List.map
            (fun size ->
              Config.default |> Config.with_classification false
              |> Config.with_confirm confirm |> Config.with_budget budget
              |> Config.with_degrade (budget <> None)
              |> Config.with_verdict_cache size)
            [ 1; 64; 4096 ])
        [ None; Some tight ])
    [ None; Some Sanids_confirm.Confirm.default_config ]

let prop_cache_equiv =
  QCheck2.Test.make ~name:"verdict cache on ≡ off" ~count:20
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let pkts = cache_oracle_traffic seed in
      let verdicts cfg =
        let nids = Pipeline.create cfg in
        List.map
          (fun p ->
            List.map
              (fun (v : Pipeline.verdict) ->
                ( v.Pipeline.match_,
                  Slice.to_string v.Pipeline.frame.Sanids_extract.Extractor.data,
                  v.Pipeline.confirmation,
                  v.Pipeline.degraded ))
              (Pipeline.analyze_report_slice nids (Packet.payload p)).Pipeline.verdicts)
          pkts
      in
      let alerts cfg = Pipeline.process_packets (Pipeline.create cfg) pkts in
      List.for_all
        (fun cfg ->
          let off = Config.with_verdict_cache 0 cfg in
          alerts cfg = alerts off && verdicts cfg = verdicts off)
        cache_oracle_configs)

(* The trace gate (a template skipped on a trace whose kind union misses
   one of its steps' demands) runs only in unbudgeted scans: under
   [Budget.unlimited] the plain search visits every start, and both must
   report the same.  Each case is drawn from a printed seed: a random
   region, or a polymorphic decoder or plain shellcode inside random
   padding. *)
let gated_equiv_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let pad () = Rng.bytes rng (Rng.int rng 200) in
  let classic = (Shellcodes.find "classic").Shellcodes.code in
  let module P = Sanids_polymorph in
  match Rng.int rng 5 with
  | 0 -> Rng.bytes rng (Rng.int rng 1200)
  | 1 ->
      let family = Rng.pick rng [| P.Admmutate.Xor_loop; P.Admmutate.Alt_chain |] in
      pad () ^ (P.Admmutate.generate ~family rng ~payload:classic).P.Admmutate.code ^ pad ()
  | 2 -> pad () ^ (P.Admmutate.generate_staged rng ~payload:classic).P.Admmutate.code ^ pad ()
  | 3 -> pad () ^ (P.Clet.generate rng ~payload:classic).P.Clet.code ^ pad ()
  | _ -> pad () ^ (Rng.pick_list rng Shellcodes.all).Shellcodes.code ^ pad ()

let prop_gated_equiv =
  QCheck2.Test.make ~name:"gated scan ≡ ungated scan" ~count:150
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let code = Slice.of_string (gated_equiv_case seed) in
      let templates = Template_lib.default_set in
      let gated = Matcher.scan_report_slice ~templates code in
      let ungated =
        Matcher.scan_report_slice ~budget:(Budget.start Budget.unlimited) ~templates code
      in
      gated.Matcher.results = ungated.Matcher.results
      && gated.Matcher.tripped = ungated.Matcher.tripped
      && gated.Matcher.outcome = Budget.Complete
      && ungated.Matcher.outcome = Budget.Complete)

(* Every memo entry is what a fresh decode and lift would build, at
   every offset of the same regions and programs: [off], [len], [insn]
   and [sems], with [kinds] the OR of the kind bits of [sems]. *)
let entry_agrees code c off =
  let e = Icache.lookup c off in
  match Decode.at code off with
  | None -> false
  | Some d ->
      let sems = Sem.lift d.Decode.insn in
      e.Icache.off = off && e.Icache.len = d.Decode.len && e.Icache.insn = d.Decode.insn
      && e.Icache.sems = sems
      && e.Icache.kinds = Array.fold_left (fun m s -> m lor Sem.kind_bit s) 0 sems

let prop_memo_entries =
  QCheck2.Test.make ~name:"memo entry ≡ Decode.at + Sem.lift at every offset" ~count:150
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let code = gated_equiv_case seed in
      let c = Icache.create code in
      let offs = List.init (String.length code) Fun.id in
      List.for_all (entry_agrees code c) offs
      && Icache.misses c = String.length code
      (* the second lookup is a hit and returns the same record *)
      && List.for_all (entry_agrees code c) offs
      && Icache.hits c = String.length code)

(* Fuel order: under equal instruction budgets the memo walk and the
   fresh-decode reference take fuel at the same steps, so they stop at
   the same step, report the same outcome and leave the same fuel.  One
   budget is shared by the walks from every entry (and one past each
   end), as a scan shares the packet's; the allowance runs from none to
   the region's length and the length bound from 1 up, so both the
   length and the fuel check get to stop a trace.  Regions are drawn
   from a printed seed: a jmp-chain maze, random bytes, or a case of
   the gated-scan property. *)
let budgeted_walk_case seed =
  let rng = Rng.create (Int64.of_int seed) in
  let code =
    match Rng.int rng 3 with
    | 0 ->
        Sanids_workload.Adversarial.payload ~kind:Sanids_workload.Adversarial.Jmp_maze
          ~size:(1 + Rng.int rng 600) rng
    | 1 -> Rng.bytes rng (Rng.int rng 400)
    | _ -> gated_equiv_case seed
  in
  let insns = Rng.int rng (String.length code + 1) in
  let max_len = if Rng.bool rng then 1024 else 1 + Rng.int rng 32 in
  (code, insns, max_len)

let prop_budgeted_walk_equiv =
  QCheck2.Test.make ~name:"budgeted Icache.walk ≡ budgeted Trace.build" ~count:300
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let code, insns, max_len = budgeted_walk_case seed in
      let limits = { Budget.unlimited with Budget.max_insns = insns } in
      let walk_fuel = Budget.start limits and build_fuel = Budget.start limits in
      let cache = Icache.create code in
      let entries = List.init (String.length code + 2) (fun i -> i - 1) in
      List.for_all
        (fun entry ->
          let n = Icache.walk ~budget:walk_fuel ~max_len cache ~entry in
          same_steps
            (Trace.build ~budget:build_fuel ~max_len code ~entry)
            (Array.init n (Icache.step cache)))
        entries
      && Budget.outcome walk_fuel = Budget.outcome build_fuel
      && (Budget.spent walk_fuel).Budget.insns = (Budget.spent build_fuel).Budget.insns
      (* the fuel left: both grant the rest and then deny *)
      && Budget.take_insns walk_fuel (insns - (Budget.spent walk_fuel).Budget.insns)
         = Budget.take_insns build_fuel (insns - (Budget.spent build_fuel).Budget.insns)
      && Budget.take_insns walk_fuel 1 = Budget.take_insns build_fuel 1)

(* Lifts of operand-free instructions, register operands, [Bad] bytes
   and imm8s are preallocated values shared by every decode, memo entry
   and trace.  Arrays are mutable, so one consumer writing into an
   entry's [sems] would corrupt the lift of every later instruction of
   that kind: after scanning a corpus, every shared array and table must
   still equal a freshly built one. *)
let test_shared_values_intact () =
  let rng = Rng.create 0x7AB1E0BEL in
  let binary = { Sanids_workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  let benign = List.init 200 (fun _ -> Sanids_workload.Benign_gen.payload ~mix:binary rng) in
  let programs = List.init 100 gated_equiv_case in
  List.iter
    (fun code ->
      ignore (Matcher.scan_report_slice ~templates:Template_lib.default_set (Slice.of_string code)))
    (benign @ programs);
  Alcotest.(check bool) "shared lifts intact" true (Sem.shared_intact ());
  Alcotest.(check bool) "shared operand tables intact" true (Decode.tables_intact ());
  List.iter
    (fun (i, sems) ->
      if Sem.lift i <> sems then
        Alcotest.failf "lift of %s changed" (Pretty.to_string i))
    [
      (Insn.Int3, [| Sem.S_halt |]);
      (Insn.Bad 0xD6, [| Sem.S_halt |]);
      (Insn.Nop, [| Sem.S_nop |]);
      (Insn.Ret, [| Sem.S_ret |]);
      (Insn.Test (Insn.S32bit, Insn.Reg Reg.EAX, Insn.Reg Reg.EAX), [| Sem.S_cmp |]);
    ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_walk_equiv;
      prop_gated_equiv;
      prop_memo_entries;
      prop_budgeted_walk_equiv;
      prop_cache_equiv;
    ]

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
          Alcotest.test_case "shared values intact after scans" `Quick
            test_shared_values_intact;
        ] );
      ( "trace-memo",
        [
          Alcotest.test_case "structured equivalence" `Quick
            test_walk_equiv_structured;
          Alcotest.test_case "walk scratch is per walk" `Quick
            test_walk_scratch_per_walk;
          Alcotest.test_case "covered is the walked union" `Quick
            test_covered_is_walked_union;
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
          Alcotest.test_case "gate ahead of cache" `Quick test_gate_ahead_of_cache;
        ] );
      ("properties", properties);
    ]
