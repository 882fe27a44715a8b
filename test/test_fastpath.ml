(* Tests for the analysis fast path: the LRU, the decode-memo instruction
   cache, memoized-vs-direct trace building, the trace gate against the
   plain search, the decode memo's hit accounting, the template data
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
(* Tier 1: a shape is Decode.next's length, the lift's kinds and the
   successor *)

let shape_agrees code c off =
  let s = Icache.shape c off in
  match Decode.at code off with
  | None -> false
  | Some d ->
      Icache.shape_len s = d.Decode.len
      && Icache.shape_kinds s = Sem.kinds (Sem.lift d.Decode.insn)
      && Icache.shape_next s = Icache.successor d.Decode.insn ~next:(off + d.Decode.len)

let byte_str b = String.make 1 (Char.chr b)
let tier1_seed = 0x5A4E1

(* Every one-byte opcode and every [0F xx] opcode, followed by every
   ModRM byte and, where the ModRM byte selects one, every SIB byte; and
   [F3] before every opcode and following byte.  The operand bytes after
   them come from a printed seed.  Cases sit 16 bytes apart in one region
   per opcode, so the shape at each case's start is read as a scan reads
   it.  Tier 1 must fill with no full decode everywhere but at [lea]
   with a SIB byte, the one class its tables leave to tier 2: 23 ModRM
   bytes (every memory form with a SIB byte but mod 0 with [ebp] as the
   destination, whose base 5 means no base at all) times 256 SIB
   bytes. *)
let test_tier1_exhaustive () =
  let rng = Rng.create (Int64.of_int tier1_seed) in
  List.iter
    (fun lead ->
      for op = 0 to 255 do
        let buf = Buffer.create (16 * 6400) in
        let cases = ref 0 in
        for m = 0 to 255 do
          let sibs = lead <> "\xf3" && m lsr 6 <> 3 && m land 7 = 4 in
          for s = 0 to if sibs then 255 else 0 do
            let case = lead ^ byte_str op ^ byte_str m ^ if sibs then byte_str s else "" in
            Buffer.add_string buf case;
            Buffer.add_string buf (Rng.bytes rng (16 - String.length case));
            incr cases
          done
        done;
        let code = Buffer.contents buf in
        let c = Icache.create code in
        for k = 0 to !cases - 1 do
          if not (shape_agrees code c (16 * k)) then
            Alcotest.failf "seed 0x%x: %S %02x, case %d: shape differs" tier1_seed lead op k
        done;
        let lifts = if lead = "" && op = 0x8D then 23 * 256 else 0 in
        if Icache.lifts c <> lifts then
          Alcotest.failf "seed 0x%x: %S %02x: %d full decodes, expected %d" tier1_seed lead op
            (Icache.lifts c) lifts
      done)
    [ ""; "\x0f"; "\xf3" ]

(* The same cases cut short at every length up to the instruction's
   own: an instruction that runs past the region's end is one [Bad]
   byte, as [Decode.next] reads it. *)
let test_tier1_truncated () =
  let rng = Rng.create (Int64.of_int (tier1_seed + 1)) in
  List.iter
    (fun lead ->
      for op = 0 to 255 do
        for m = 0 to if lead = "\xf3" then 0 else 255 do
          let full = lead ^ byte_str op ^ byte_str m ^ Rng.bytes rng 13 in
          let len =
            match Decode.at full 0 with Some d -> d.Decode.len | None -> assert false
          in
          for cut = 1 to max len (String.length lead + 1) do
            let code = String.sub full 0 cut in
            if not (shape_agrees code (Icache.create code) 0) then
              Alcotest.failf "seed 0x%x: %S cut to %d bytes: shape differs" (tier1_seed + 1)
                (String.escaped full) cut
          done
        done
      done)
    [ ""; "\x0f"; "\xf3" ]

(* Random regions, with bytes drawn half the time from the escapes,
   branches and ModRM/SIB-heavy opcodes, so that escapes, SIB bytes and
   relative targets meet the region's end often: the shape at every
   offset, on a first and a second lookup. *)
let prop_tier1_random =
  let special = [| 0x0F; 0xF3; 0x8D; 0xE8; 0xE9; 0xEB; 0x04; 0x24; 0x44; 0x84; 0x05; 0xC7 |] in
  QCheck2.Test.make ~name:"tier-1 shape ≡ Decode.next + Sem.lift + successor" ~count:300
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let rng = Rng.create (Int64.of_int seed) in
      let code =
        String.init (Rng.int rng 300) (fun _ ->
            Char.chr (if Rng.bool rng then Rng.pick rng special else Rng.byte rng))
      in
      let c = Icache.create code in
      let offs = List.init (String.length code) Fun.id in
      List.for_all (shape_agrees code c) offs
      && List.for_all (shape_agrees code c) offs
      && Icache.misses c = String.length code
      && Icache.hits c = String.length code
      && Icache.lifts c <= Icache.misses c)

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

(* One scan with the default templates, gated (no budget) or not (an
   unlimited budget, so every step of every walk is searched and read in
   full: the one-tier reference), with the decode memo's counters. *)
let scan_counted ~gated code =
  let reg = Obs.Registry.create () in
  let budget = if gated then None else Some (Budget.start Budget.unlimited) in
  let r = Matcher.scan_report_slice ?budget ~metrics:reg ~templates:Template_lib.default_set code in
  let c = Obs.Snapshot.counter_value (Obs.Registry.snapshot reg) in
  (r, (c Matcher.decode_memo_hits, c Matcher.decode_memo_misses, c Matcher.decode_memo_lifts))

(* Whether both sides report the same, complete, and walk the same
   steps (equal tier-1 counts) with neither reading more offsets in full
   than it classified; with the results, the tier-1 misses and each
   side's tier-2 fills. *)
let gated_vs_ungated code =
  let gated, (h, m, l) = scan_counted ~gated:true code in
  let ungated, (h', m', l') = scan_counted ~gated:false code in
  let agree =
    gated.Matcher.results = ungated.Matcher.results
    && gated.Matcher.tripped = ungated.Matcher.tripped
    && gated.Matcher.outcome = Budget.Complete
    && ungated.Matcher.outcome = Budget.Complete
    && h = h' && m = m' && l <= m && l' <= m'
  in
  (agree, gated.Matcher.results, m, l, l')

let prop_gated_equiv =
  QCheck2.Test.make ~name:"gated scan ≡ ungated scan" ~count:150
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let agree, _, _, _, _ = gated_vs_ungated (Slice.of_string (gated_equiv_case seed)) in
      agree)

(* The first frames of 200 benign binary uploads, the corpus the scan
   allocation gate and the micro rows read. *)
let benign_seed = 0x7AB1E0BE

let benign_binary_frames () =
  let rng = Rng.create (Int64.of_int benign_seed) in
  let binary = { Sanids_workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  List.init 200 (fun _ ->
      match
        Sanids_extract.Extractor.extract
          (Slice.of_string (Sanids_workload.Benign_gen.payload ~mix:binary rng))
      with
      | f :: _ -> f.Sanids_extract.Extractor.data
      | [] -> Alcotest.failf "seed 0x%x: benign binary payload produced no frame" benign_seed)

(* The same property over the benign frames.  Nothing matches, so the
   ungated side reads every step it walks in full: its tier-2 fills are
   exactly its tier-1 misses.  The gated side reads in full only the
   walks whose kind union admits a template, a small share of them. *)
let test_gated_equiv_benign () =
  let lifted = ref 0 and classified = ref 0 in
  List.iteri
    (fun i code ->
      let agree, results, m, l, l' = gated_vs_ungated code in
      if not agree then
        Alcotest.failf "seed 0x%x, frame %d: gated and ungated scans differ" benign_seed i;
      if results <> [] || l' <> m then
        Alcotest.failf "seed 0x%x, frame %d: ungated scan read %d of %d offsets in full"
          benign_seed i l' m;
      lifted := !lifted + l;
      classified := !classified + m)
    (benign_binary_frames ());
  if 5 * !lifted >= !classified then
    Alcotest.failf "seed 0x%x: the gated scans read %d of %d offsets in full" benign_seed
      !lifted !classified

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

(* Register operands, [Bad] bytes and imm8s are preallocated values
   shared by every decode, memo entry and trace.  Arrays are mutable,
   so one consumer writing into a shared table would corrupt every
   later decode that reads it: after scanning a corpus, every shared
   table must still equal a freshly built one. *)
let test_shared_values_intact () =
  let rng = Rng.create 0x7AB1E0BEL in
  let binary = { Sanids_workload.Benign_gen.http = 0.0; smtp = 0.0; dns = 0.0; binary = 1.0 } in
  let benign = List.init 200 (fun _ -> Sanids_workload.Benign_gen.payload ~mix:binary rng) in
  let programs = List.init 100 gated_equiv_case in
  List.iter
    (fun code ->
      ignore (Matcher.scan_report_slice ~templates:Template_lib.default_set (Slice.of_string code)))
    (benign @ programs);
  Alcotest.(check bool) "shared operand tables intact" true (Decode.tables_intact ());
  Alcotest.(check bool) "decode memo's encoding tables intact" true (Icache.tables_intact ())

(* ------------------------------------------------------------------ *)
(* The compiled matcher against the reference search *)

(* A fuel configuration: no fuel at all (the gated scan), or a budget
   and a step cap, each drawn on or off, at levels from none to more
   than any case spends. *)
type fuel = { limits : Budget.limits option; cap : int option }

let draw_fuel rng ~n =
  let limits =
    if Rng.bool rng then None
    else
      Some
        {
          Budget.unlimited with
          Budget.max_insns = (if Rng.bool rng then max_int else Rng.int rng ((2 * n) + 1));
          max_match_steps = (if Rng.bool rng then max_int else Rng.int rng 20_000);
        }
  in
  let cap = if Rng.bool rng then None else Some (Rng.int rng 5_000) in
  { limits; cap }

(* One scan each way under equal fuel: the same results (template,
   entry, offsets, bindings in order), evidence, outcome, trips and
   fuel spent. *)
let compiled_agrees ?entries ~templates fuel code =
  let run scan =
    let budget = Option.map Budget.start fuel.limits in
    let (r : Matcher.scan_report) = scan budget in
    (r, Option.map Budget.spent budget)
  in
  let c, c_spent =
    run (fun budget ->
        Matcher.scan_report_slice ?entries ?budget ?step_cap:fuel.cap ~templates code)
  in
  let r, r_spent =
    run (fun budget ->
        Matcher_ref.scan_report_slice ?entries ?budget ?step_cap:fuel.cap ~templates code)
  in
  c.Matcher.results = r.Matcher.results
  && List.map Matcher.evidence c.Matcher.results = List.map Matcher.evidence r.Matcher.results
  && c.Matcher.outcome = r.Matcher.outcome
  && c.Matcher.tripped = r.Matcher.tripped
  && c_spent = r_spent

(* A case from a printed seed: a region of the gated-scan property
   (random bytes, ADMmutate and Clet decoders, shellcodes in padding),
   a decoy decoder or a jmp-chain maze; the default templates or a
   random selection of them (a list compiled afresh, families split
   across it); the whole-buffer enumeration or a random entry list; and
   a fuel configuration. *)
let compiled_case seed =
  let rng = Rng.create (Int64.of_int (seed lxor 0x5EED)) in
  let code =
    match Rng.int rng 8 with
    | 0 ->
        Sanids_workload.Adversarial.payload ~kind:Sanids_workload.Adversarial.Decoy_decoder
          ~size:(64 + Rng.int rng 2048) rng
    | 1 ->
        Sanids_workload.Adversarial.payload ~kind:Sanids_workload.Adversarial.Jmp_maze
          ~size:(1 + Rng.int rng 1200) rng
    | _ -> gated_equiv_case seed
  in
  let templates =
    if Rng.bool rng then Template_lib.default_set
    else List.filter (fun _ -> Rng.bool rng) Template_lib.default_set
  in
  let n = String.length code in
  let entries =
    if Rng.int rng 4 > 0 || n = 0 then None
    else Some (List.init (1 + Rng.int rng 40) (fun _ -> Rng.int rng (n + 2) - 1))
  in
  (code, templates, entries, draw_fuel rng ~n)

let prop_compiled_equiv =
  QCheck2.Test.make ~name:"compiled ≡ reference" ~count:300
    ~print:(Printf.sprintf "seed %d")
    QCheck2.Gen.(int_bound 0x3FFFFFFF)
    (fun seed ->
      let code, templates, entries, fuel = compiled_case seed in
      compiled_agrees ?entries ~templates fuel (Slice.of_string code))

(* The 200 benign binary frames, with no fuel and under each drawn
   configuration of a seeded stream. *)
let test_compiled_equiv_benign () =
  let rng = Rng.create (Int64.of_int benign_seed) in
  List.iteri
    (fun i code ->
      let drawn = draw_fuel rng ~n:(Slice.length code) in
      List.iter
        (fun fuel ->
          if not (compiled_agrees ~templates:Template_lib.default_set fuel code) then
            Alcotest.failf "seed 0x%x, frame %d: compiled and reference scans differ"
              benign_seed i)
        [ { limits = None; cap = None }; drawn ])
    (benign_binary_frames ())

(* A family settled by a later variant: the earlier variant of
   "decrypt-loop" (memory transform first) cannot match this loop, the
   later one (pointer advance first) does, on the first walk.  The
   plain search closes the earlier variant only when its next walk's
   template loop reaches it, so that walk still happens and spends its
   fuel; the compiled scan must walk it too. *)
let test_settled_family_walks_on () =
  (* inc esi; xor byte [esi], 0x55; jmp -6; then nop padding *)
  let code = Slice.of_string "\x46\x80\x36\x55\xEB\xFA\x90\x90\x90" in
  let templates = Template_lib.xor_decrypt in
  let r = Matcher.scan_report_slice ~templates code in
  Alcotest.(check (list (list int))) "the later variant matches" [ [ 0; 1; 4 ] ]
    (List.map (fun (m : Matcher.result) -> m.Matcher.offsets) r.Matcher.results);
  List.iter
    (fun fuel ->
      if not (compiled_agrees ~templates fuel code) then
        Alcotest.fail "compiled and reference scans differ")
    [ { limits = Some Budget.unlimited; cap = None }; { limits = None; cap = Some 1000 } ]

(* A pointer bound to EDX survives 8-bit multiply junk, which writes
   only AX, in the compiled matcher and in the reference:
   L: xor byte [edx], 0x55; imul cl; inc edx; jmp L *)
let test_edx_across_8bit_imul () =
  let code = Slice.of_string "\x80\x32\x55\xF6\xE9\x42\xEB\xF8" in
  let templates = Template_lib.xor_decrypt in
  let expect =
    [
      {
        Matcher.template = "decrypt-loop";
        entry = 0;
        offsets = [ 0; 5; 6 ];
        reg_bindings = [ ("ptr", Reg.EDX) ];
        const_bindings = [ ("key", 0x55l) ];
      };
    ]
  in
  Alcotest.(check bool) "compiled" true
    ((Matcher.scan_report_slice ~templates code).Matcher.results = expect);
  Alcotest.(check bool) "reference" true
    ((Matcher_ref.scan_report_slice ~templates code).Matcher.results = expect)

(* Per-domain scratch: scans of one corpus on two domains at once
   report what the same scans report on one. *)
let test_two_domains () =
  let corpus =
    Array.of_list
      (benign_binary_frames ()
      @ List.init 40 (fun i -> Slice.of_string (gated_equiv_case (1000 + i))))
  in
  let scan_all () =
    Array.map
      (fun code ->
        let budget = Budget.start { Budget.unlimited with Budget.max_match_steps = 50_000 } in
        let plain = Matcher.scan_report_slice ~templates:Template_lib.default_set code in
        let fuelled =
          Matcher.scan_report_slice ~budget ~step_cap:4_000 ~templates:Template_lib.default_set
            code
        in
        (plain, fuelled, Budget.spent budget))
      corpus
  in
  let one = scan_all () in
  let a = Domain.spawn scan_all and b = Domain.spawn scan_all in
  let a = Domain.join a and b = Domain.join b in
  Alcotest.(check bool) "first domain" true (a = one);
  Alcotest.(check bool) "second domain" true (b = one)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_walk_equiv;
      prop_gated_equiv;
      prop_memo_entries;
      prop_tier1_random;
      prop_budgeted_walk_equiv;
      prop_cache_equiv;
      prop_compiled_equiv;
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
          Alcotest.test_case "tier-1 shape on every opcode, ModRM and SIB" `Quick
            test_tier1_exhaustive;
          Alcotest.test_case "tier-1 shape cut at every region end" `Quick
            test_tier1_truncated;
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
          Alcotest.test_case "gated scan ≡ ungated scan on benign frames" `Quick
            test_gated_equiv_benign;
          Alcotest.test_case "compiled ≡ reference on benign frames" `Quick
            test_compiled_equiv_benign;
          Alcotest.test_case "a settled family walks on" `Quick test_settled_family_walks_on;
          Alcotest.test_case "edx bound across an 8-bit imul" `Quick test_edx_across_8bit_imul;
          Alcotest.test_case "two domains scan as one" `Quick test_two_domains;
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
