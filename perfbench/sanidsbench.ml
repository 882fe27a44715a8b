(* Layer-accounted detection benchmark for the sanids pipeline.

   Four workloads, each built from the seed with traffic shares taken
   from the repository's own evaluation (see each generator below).

   Three of them are closed loops with one client: the client sends one
   capture record to the detector, waits for the verdict, and sends the
   next, so the detector's own pace sets the load.  Serving a record is
   what `sanids scan` does to it: ingest decode, classification,
   extraction, template matching and, where configured, the
   static-refutation pre-stage and emulation, behind the verdict cache.
   After one untimed warm-up pass the client cycles through the pool
   until the time is up, and every request's latency is kept.  The pools
   are small enough to cycle through many times a run: the shared hosts
   this runs on slow memory-bound code by a fifth or more for seconds at
   a time, and the figures are taken over the run's quieter half (see
   [quieter_half]).

   The fourth, `serve`, runs the daemon engine (`Serve.run`, one worker
   domain) over a capture file again and again; a request is one whole
   run over the file, the way `sanids serve` consumes a capture.

   Every record carries a label from the traffic generator (an attack
   that must raise alerts, or traffic that must stay silent), and every
   verdict is checked against it.

   Usage:
     sanidsbench --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are end to end: the median request latency, the rate the
   detector sustained, and the median set-up time.  With --trace 1 they are per-layer costs per record,
   read from the pipeline's own stage histograms, with an unattributed
   remainder so that the layers add up to the wall time; the `serve`
   workload adds the costs of the stream path's queue admission and of
   the daemon's feeder, each measured as the difference between two
   paths over the same records. *)

module Rng = Sanids_util.Rng
module Slice = Sanids_util.Slice
module Ipaddr = Sanids_net.Ipaddr
module Packet = Sanids_net.Packet
module Pcap = Sanids_pcap.Pcap
module Ingest = Sanids_ingest.Ingest
module Config = Sanids_nids.Config
module Pipeline = Sanids_nids.Pipeline
module Parallel = Sanids_nids.Parallel
module Stats = Sanids_nids.Stats
module Serve = Sanids_serve.Serve
module Obs = Sanids_obs
module E = Sanids_exploits
module P = Sanids_polymorph
module W = Sanids_workload

(* ------------------------------------------------------------------ *)
(* Traffic *)

type expect = Silent | Alerts

type item = {
  packet : Packet.t;
  expect : expect;
  salted : bool;
      (* gets a fresh suffix on every pass, so its bytes never repeat and
         the verdict cache cannot answer for it *)
}

(* The address plan of the Table 3 bench section (bench/table3.ml). *)
let clients = Ipaddr.prefix_of_string "172.16.0.0/16"
let servers = Ipaddr.prefix_of_string "172.17.0.0/16"
let unused = Ipaddr.prefix_of_string "172.17.200.0/21"
let attackers = Ipaddr.prefix_of_string "10.66.0.0/16"

let addr rng p = Ipaddr.nth p (Rng.int rng (min (Ipaddr.prefix_size p) 65536))

(* Table 3, as its bench section generates one quick-mode trace: 20,000
   benign packets over five minutes, 1 to 5 Code Red II instances each
   preceded by six scans into the unused space, classification on.  The
   configuration is the paper's, without the confirmation stage, which
   refutes the Code Red vector by design.  The trace is replayed
   unchanged on every pass, as the same capture would be. *)
let outbreak rng =
  let instances = 1 + Rng.int rng 5 in
  let pkts, truth =
    W.Worm_gen.code_red_trace rng ~benign:2_000 ~instances ~scans_per_instance:6
      ~clients ~servers ~unused ~duration:300.0
  in
  let crii = E.Code_red.request () in
  let items =
    Array.of_list
      (List.map
         (fun p ->
           let expect = if Packet.payload_string p = crii then Alerts else Silent in
           { packet = p; expect; salted = false })
         pkts)
  in
  let attacks = Array.fold_left (fun n it -> if it.expect = Alerts then n + 1 else n) 0 items in
  if attacks <> truth.W.Worm_gen.crii_instances then
    failwith "outbreak: labelled attacks disagree with the trace's ground truth";
  (items, Config.default |> Config.with_unused [ unused ])

(* Section 5.4: benign traffic only, classification off, so every
   payload is analysed.  The kinds come in Benign_gen.default_mix
   proportions, dealt by position in runs of 50 rather than drawn, so
   every seed has exactly that mix and seeds differ in content only. *)
let benign_kind j =
  let m = W.Benign_gen.default_mix in
  let slot = float_of_int (j mod 50) +. 0.5 in
  let upto = [ m.http; m.http +. m.smtp; m.http +. m.smtp +. m.dns ] in
  let one k = if k then 1.0 else 0.0 in
  let k = List.length (List.filter (fun u -> slot >= u *. 50.0) upto) in
  { W.Benign_gen.http = one (k = 0); smtp = one (k = 1); dns = one (k = 2); binary = one (k = 3) }

let benign_pool rng n ~salted =
  Array.init n (fun j ->
      let packet = W.Benign_gen.packet ~mix:(benign_kind j) rng ~ts:0.0 ~clients ~servers in
      { packet; expect = Silent; salted })

let cold rng =
  (benign_pool rng 2000 ~salted:true, Config.default |> Config.with_classification false)

let classic = (E.Shellcodes.find "classic").E.Shellcodes.code

(* The decoder corpus of the confirmation bench row: four kinds in turn.
   The matcher flags each one and the emulator confirms it. *)
let decoder rng k =
  match k mod 4 with
  | 0 ->
      (P.Admmutate.generate ~family:P.Admmutate.Xor_loop rng ~payload:classic)
        .P.Admmutate.code
  | 1 ->
      (P.Admmutate.generate ~family:P.Admmutate.Alt_chain rng ~payload:classic)
        .P.Admmutate.code
  | 2 -> (P.Admmutate.generate_staged rng ~payload:classic).P.Admmutate.code
  | _ -> (P.Clet.generate rng ~payload:classic).P.Clet.code

(* A decoder whose pointer is wild: the matcher flags it, the
   refutation stages must clear it. *)
let decoy rng = W.Adversarial.payload ~kind:W.Adversarial.Decoy_decoder ~size:2048 rng

let attack rng ~expect payload =
  let packet =
    Packet.build_tcp ~ts:0.0 ~src:(addr rng attackers) ~dst:(addr rng servers)
      ~src_port:(1024 + Rng.int rng 60000) ~dst_port:80 payload
  in
  { packet; expect; salted = true }

(* The corpus of the static_refute bench row: decoys interleaved one for
   one with true decoders, every request a matcher hit that the verdict
   stages must settle, none repeated. *)
let verdicts rng =
  let items =
    Array.init 128 (fun i ->
        if i mod 2 = 0 then attack rng ~expect:Silent (decoy rng)
        else attack rng ~expect:Alerts (decoder rng (i / 2)))
  in
  (items, Config.default |> Config.with_classification false)

(* The daemon over the traffic of the serve_steady_state and
   stream_shedding bench rows: benign packets in the default mix,
   classification off.  The capture file is read afresh by each run of
   the daemon, so nothing needs salting. *)
let serve_traffic rng =
  (benign_pool rng 2000 ~salted:false, Config.default |> Config.with_classification false)

let workloads =
  [ ("outbreak", outbreak); ("cold", cold); ("verdicts", verdicts); ("serve", serve_traffic) ]

(* Apart from the Table 3 replay, which keeps the paper's configuration,
   the detector runs as `sanids scan --confirm default --static-refute`. *)
let configure workload base =
  if workload = "outbreak" then base
  else
    base
    |> Config.with_confirm (Some Sanids_confirm.Confirm.default_config)
    |> Config.with_static_refute true

(* ------------------------------------------------------------------ *)
(* Records *)

let salt_of n = Printf.sprintf "\r\nX-Request: %08x\r\n" n

let record ~ts ?salt item =
  let p = item.packet in
  let bytes =
    match salt with
    | None -> Packet.to_bytes p
    | Some s ->
        let src = Packet.src p and dst = Packet.dst p in
        let src_port, dst_port = Option.value (Packet.ports p) ~default:(1024, 80) in
        let payload = Packet.payload_string p ^ s in
        Packet.to_bytes
          (if Packet.is_tcp p then Packet.build_tcp ~ts ~src ~dst ~src_port ~dst_port payload
           else Packet.build_udp ~ts ~src ~dst ~src_port ~dst_port payload)
  in
  let raw = Sanids_net.Ethernet.wrap_ipv4 bytes in
  { Pcap.ts; orig_len = String.length raw; data = Slice.of_string raw }

(* The records of one pass over the pool.  Unsalted records are built
   once; salted ones are rebuilt per pass with a pass-unique suffix. *)
let pass_records items fixed ~pass =
  Array.mapi
    (fun i item ->
      if item.salted then
        record ~ts:(float_of_int pass) ~salt:(salt_of ((pass * Array.length items) + i)) item
      else fixed.(i))
    items

let linktype = Pcap.linktype_ethernet

(* ------------------------------------------------------------------ *)
(* Measurement *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* A growable array of latency samples, ns. *)
type samples = { mutable buf : int array; mutable len : int }

let samples () = { buf = Array.make 65536 0; len = 0 }

let add s x =
  if s.len = Array.length s.buf then begin
    let b = Array.make (2 * s.len) 0 in
    Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  s.buf.(s.len) <- x;
  s.len <- s.len + 1

(* nearest-rank quantile of a sorted array *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median_f l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tally = {
  lat : samples;  (* latencies of the requests kept for the quantiles *)
  mutable keep_one_in : int;
  mutable draw : int;  (* xorshift state choosing the kept requests *)
  mutable requests : int;
  mutable failed : int;
  mutable busy_ns : int;  (* every latency, summed *)
  mutable decode_ns : int;  (* traced runs only *)
}

let tally () =
  {
    lat = samples ();
    keep_one_in = 1;
    draw = 0x2545F491;
    requests = 0;
    failed = 0;
    busy_ns = 0;
    decode_ns = 0;
  }

(* Quantiles need half a million latencies; a run of sub-microsecond
   requests makes tens of millions.  Past [max_kept] expected requests,
   a random one in [keep_one_in] is kept, chosen independently of its
   position in the pool.  Sums and rates still count every request. *)
let max_kept = 500_000

let keep tl =
  if tl.keep_one_in = 1 then true
  else begin
    let x = tl.draw in
    let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
    let x = x lxor (x lsr 17) in
    let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
    tl.draw <- x;
    x mod tl.keep_one_in = 0
  end

let verdict_ok ~confirmed alerts expect =
  match (alerts, expect) with
  | Some [], Silent -> true
  | Some (_ :: _ as al), Alerts ->
      (not confirmed) || List.for_all (fun a -> a.Sanids_nids.Alert.confirmed) al
  | _ -> false

(* Serve one record and wait for its verdict. *)
let request nids metrics ~confirmed ~trace tl (r : Pcap.record) expect =
  let t0 = now_ns () in
  let decoded = Ingest.decode_record ~metrics ~linktype r in
  let t1 = if trace then now_ns () else t0 in
  let alerts =
    match decoded with Ok p -> Some (Pipeline.process_packet nids p) | Error _ -> None
  in
  let lat = now_ns () - t0 in
  tl.requests <- tl.requests + 1;
  tl.busy_ns <- tl.busy_ns + lat;
  tl.decode_ns <- tl.decode_ns + (t1 - t0);
  if keep tl then add tl.lat lat;
  if not (verdict_ok ~confirmed alerts expect) then tl.failed <- tl.failed + 1

(* Set-up as the daemon pays it at start and on every reload: the lint
   gate over the configuration and its templates, then the pipeline.
   Returns the pipeline, the gate's time and the whole set-up's, ns. *)
let setup cfg =
  let t0 = now_ns () in
  let checked =
    match Serve.reload_candidate ~base:cfg ~config_file:None ~rules_file:None with
    | Ok c -> c
    | Error m -> failwith ("configuration rejected: " ^ m)
  in
  let t1 = now_ns () in
  let nids = Pipeline.create checked in
  (nids, t1 - t0, now_ns () - t0)

(* Set-ups are timed before the warm-up and again after the timed
   requests, never among them.  A sample is the mean of a burst of
   set-ups in a row, started on a heap just collected so that no
   collection work the requests left behind is billed to it; one set-up
   takes a fraction of a millisecond, too short to time alone.  As with
   the requests, the figure is taken over the quieter half: the median
   of the faster half of the samples. *)
let setup_samples_each_side = 40
let setup_burst = 10

let time_setups cfg =
  List.init setup_samples_each_side (fun _ ->
      Gc.full_major ();
      let gate = ref 0 and total = ref 0 in
      for _ = 1 to setup_burst do
        let _, g, t = setup cfg in
        gate := !gate + g;
        total := !total + t
      done;
      (!gate / setup_burst, !total / setup_burst))

let print_result ~correct ~attempted ~failed metrics =
  let num f = if Float.is_finite f then Printf.sprintf "%.17g" f else "0" in
  let m =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed m

let setup_seconds setups =
  let a = Array.of_list (List.map (fun (_, t) -> float_of_int t *. 1e-9) setups) in
  Array.sort compare a;
  median_f (Array.to_list (Array.sub a 0 ((Array.length a + 1) / 2)))

(* End-to-end figures come from the quieter half of a run.  The run is
   cut into windows of whole units (passes over the pool, or daemon runs
   over the capture), each at least [window_ns] long; the windows are
   ranked by their mean latency per record and the faster half is kept.
   Every request in a kept window counts.  A window holds hundreds of
   minor collections and many major slices, so the program's own
   collection and eviction costs fall on every window alike and stay in
   the figures; what the ranking drops is the shared host's slow spells,
   which last seconds and fall on some windows only. *)
let window_ns = 250_000_000

(* A complete unit: its range of kept latency samples, its busy time
   and the records it served. *)
type unit_ = { first : int; stop : int; busy : int; records : int }

let quieter_half units =
  let join w u = { w with stop = u.stop; busy = w.busy + u.busy; records = w.records + u.records } in
  let windows, open_window =
    List.fold_left
      (fun (done_, cur) u ->
        let w = match cur with None -> u | Some w -> join w u in
        if w.busy >= window_ns then (w :: done_, None) else (done_, Some w))
      ([], None) units
  in
  let windows =
    match (windows, open_window) with [], Some w -> [ w ] | ws, _ -> ws
  in
  let mean w = float_of_int w.busy /. float_of_int w.records in
  let ranked = List.sort (fun x y -> compare (mean x) (mean y)) windows in
  List.filteri (fun i _ -> 2 * i < List.length ranked) ranked

let end_to_end ~(lat : samples) ~units ~setups =
  let kept = quieter_half units in
  let a = Array.concat (List.map (fun w -> Array.sub lat.buf w.first (w.stop - w.first)) kept) in
  Array.sort compare a;
  let total f = List.fold_left (fun acc w -> acc + f w) 0 kept in
  let us x = float_of_int x /. 1e3 in
  [
    ("latency_p50_us", "us", us (quantile a 0.50));
    ( "throughput_pps",
      "1/s",
      float_of_int (total (fun w -> w.records)) /. (float_of_int (total (fun w -> w.busy)) *. 1e-9) );
    ("setup_s", "s", setup_seconds setups);
  ]

let stage_seconds snap name =
  Obs.Histogram.sum (Obs.Snapshot.histogram snap ("sanids_stage_" ^ name ^ "_seconds"))

(* The paths of the serve workload, ns per record; zero elsewhere. *)
type paths = { stream : float; serve : float; admission : float; control : float }

let no_paths = { stream = 0.0; serve = 0.0; admission = 0.0; control = 0.0 }

(* Per-layer costs per record, from the pipeline's stage histograms
   between two snapshots; decode and the wall time are timed here.  The
   stages nest: analyze holds extract, match and confirm, and confirm
   holds static_refute, so emulation is confirm less static_refute. *)
let layer_metrics ~before ~after (tl : tally) ~minor_words paths =
  let n = float_of_int tl.requests in
  let s0 = Stats.of_snapshot before and s1 = Stats.of_snapshot after in
  let d f = float_of_int (f s1 - f s0) in
  let ns name = (stage_seconds after name -. stage_seconds before name) *. 1e9 /. n in
  let classify = ns "classify" and analyze = ns "analyze" in
  let extract = ns "extract" and match_ = ns "match" in
  let static = ns "static_refute" and confirm = ns "confirm" in
  let decode = float_of_int tl.decode_ns /. n in
  let wall = float_of_int tl.busy_ns /. n in
  let hits = d (fun s -> s.Stats.verdict_cache_hits) in
  let misses = d (fun s -> s.Stats.verdict_cache_misses) in
  let static_refuted = d (fun s -> s.Stats.static_refuted) in
  let refuted = d (fun s -> s.Stats.refuted) in
  let emulated =
    d (fun s -> s.Stats.confirmed + s.Stats.refuted + s.Stats.confirm_inconclusive)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let lat = Array.sub tl.lat.buf 0 tl.lat.len in
  Array.sort compare lat;
  [
    ("decode_ns", "ns", decode);
    ("classify_ns", "ns", classify);
    ("extract_ns", "ns", extract);
    ("match_ns", "ns", match_);
    ("static_refute_ns", "ns", static);
    ("emulate_ns", "ns", confirm -. static);
    ("analyze_other_ns", "ns", analyze -. extract -. match_ -. confirm);
    ("unattributed_ns", "ns", wall -. decode -. classify -. analyze);
    ("wall_ns", "ns", wall);
    ("wall_p90_ns", "ns", float_of_int (quantile lat 0.90));
    ("match_ns_per_byte", "ns/B", ratio (match_ *. n) (d (fun s -> s.Stats.frame_bytes)));
    ("minor_words", "words", minor_words /. n);
    ("cache_hit_ratio", "ratio", ratio hits (hits +. misses));
    ("analyzed_share", "ratio", d (fun s -> s.Stats.classified_suspicious) /. n);
    ("emulator_runs", "count", emulated /. n);
    ("static_refuted_share", "ratio", ratio static_refuted (static_refuted +. refuted));
    ("stream_ns", "ns", paths.stream);
    ("serve_ns", "ns", paths.serve);
    ("admission_ns", "ns", paths.admission);
    ("control_ns", "ns", paths.control);
  ]

(* ------------------------------------------------------------------ *)
(* Closed loop: outbreak, cold, verdicts *)

let closed_loop ~cfg ~items ~seconds ~trace =
  let n = Array.length items in
  let confirmed = cfg.Config.confirm <> None in
  let fixed = Array.map (fun it -> record ~ts:it.packet.Packet.ts it) items in
  let setups_before = time_setups cfg in
  let nids, _, _ = setup cfg in
  let metrics = Ingest.metrics (Pipeline.registry nids) in
  (* warm-up: one untimed pass flags the infected hosts and fills the
     verdict cache; its verdicts are checked like the rest *)
  let warm = tally () in
  let t0 = now_ns () in
  Array.iteri
    (fun i r -> request nids metrics ~confirmed ~trace:false warm r items.(i).expect)
    (pass_records items fixed ~pass:0);
  let tl = tally () in
  let expected = seconds *. float_of_int n /. (float_of_int (now_ns () - t0) *. 1e-9) in
  tl.keep_one_in <- max 1 (int_of_float (expected /. float_of_int max_kept));
  let before = Pipeline.snapshot nids in
  let w0 = Gc.minor_words () in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let pass = ref 1 in
  let units = ref [] in
  while now_ns () < deadline do
    let first = tl.lat.len and busy = tl.busy_ns in
    let recs = pass_records items fixed ~pass:!pass in
    let i = ref 0 in
    while !i < n && now_ns () < deadline do
      request nids metrics ~confirmed ~trace tl recs.(!i) items.(!i).expect;
      incr i
    done;
    if !i = n then
      units := { first; stop = tl.lat.len; busy = tl.busy_ns - busy; records = n } :: !units;
    incr pass
  done;
  let minor_words = Gc.minor_words () -. w0 in
  let after = Pipeline.snapshot nids in
  let setups = setups_before @ time_setups cfg in
  (* a run too short for one whole pass is summarised as it is *)
  let units =
    if !units = [] then [ { first = 0; stop = tl.lat.len; busy = tl.busy_ns; records = tl.requests } ]
    else List.rev !units
  in
  let failed = warm.failed + tl.failed in
  print_result ~correct:(failed = 0 && tl.requests > 0)
    ~attempted:(warm.requests + tl.requests) ~failed
    (if trace then layer_metrics ~before ~after tl ~minor_words no_paths
     else end_to_end ~lat:tl.lat ~units ~setups)

(* ------------------------------------------------------------------ *)
(* The daemon: serve *)

(* Scratch files of the serve workload live under the build directory
   of the tree the benchmark runs in. *)
let work_dir = Filename.concat "_build" "perfbench-work"

let mkdir_p d =
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ Filename.dirname d; d ]

(* Run [f] with standard output sent to [path]. *)
let with_stdout_to path f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
      in
      go [])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

(* One daemon run over the capture file, as `sanids serve FILE` with one
   worker domain.  Returns its time, ns, and whether its output agrees
   with the labels: as many alert lines as labelled attacks, and a
   reconciliation line that accounts for every record. *)
let serve_run ~cfg ~pcap ~out ~records ~attacks =
  let options =
    {
      Serve.default_options with
      source = pcap;
      base = cfg;
      domains = Some 1;
      install_signals = false;
    }
  in
  let result, dt =
    with_stdout_to out (fun () ->
        let t0 = now_ns () in
        let r = Serve.run options in
        (r, now_ns () - t0))
  in
  let lines = read_lines out in
  let alerts = List.length (List.filter (fun l -> contains l " ALERT ") lines) in
  let reconciled =
    List.exists
      (fun l ->
        match
          Scanf.sscanf l "serve: reconciliation records=%d verdicts=%d errors=%d shed=%d failed=%d %s"
            (fun r v e s f st -> r = records && v = records && e + s + f = 0 && st = "reconciled")
        with
        | ok -> ok
        | exception (Scanf.Scan_failure _ | End_of_file | Failure _) -> false)
      lines
  in
  (dt, Result.is_ok result && reconciled && alerts = attacks)

(* The same records through the bare stream path the daemon wraps:
   Parallel.process_seq_snapshot with one worker domain. *)
let stream_run ~cfg ~records ~attacks =
  let alerts = ref 0 in
  let t0 = now_ns () in
  let seq =
    Seq.filter_map
      (fun r -> Result.to_option (Ingest.decode_record ~linktype r))
      (Array.to_seq records)
  in
  let snap =
    Parallel.process_seq_snapshot ~domains:1 cfg seq (fun al ->
        alerts := !alerts + List.length al)
  in
  let dt = now_ns () - t0 in
  let n = Array.length records in
  (dt, (Stats.of_snapshot snap).Stats.packets = n && !alerts = attacks)

(* And through a pipeline directly, one record at a time, with the
   closed loop's per-record accounting. *)
let direct_run ~cfg ~confirmed ~items ~records tl =
  let t0 = now_ns () in
  let nids = Pipeline.create cfg in
  let metrics = Ingest.metrics (Pipeline.registry nids) in
  Array.iteri
    (fun i r -> request nids metrics ~confirmed ~trace:true tl r items.(i).expect)
    records;
  (now_ns () - t0, Pipeline.snapshot nids)

let serve_loop ~cfg ~items ~seconds ~trace =
  let n = Array.length items in
  let confirmed = cfg.Config.confirm <> None in
  let attacks = Array.fold_left (fun a it -> if it.expect = Alerts then a + 1 else a) 0 items in
  let records = Array.map (fun it -> record ~ts:it.packet.Packet.ts it) items in
  mkdir_p work_dir;
  let pcap = Filename.concat work_dir "serve.pcap" in
  let out = Filename.concat work_dir "serve.out" in
  let oc = open_out_bin pcap in
  output_string oc (Pcap.encode ~linktype (Array.to_list records));
  close_out oc;
  let setups_before = time_setups cfg in
  let attempted = ref 0 and failed = ref 0 in
  let check ok =
    attempted := !attempted + n;
    if not ok then failed := !failed + n
  in
  (* warm-up: one untimed run of the daemon *)
  check (snd (serve_run ~cfg ~pcap ~out ~records:n ~attacks));
  let served = samples () and streamed = samples () and direct = samples () in
  let tl = tally () in
  let snaps = ref Obs.Snapshot.empty in
  let minor_words = ref 0.0 in
  let serve () =
    let dt, ok = serve_run ~cfg ~pcap ~out ~records:n ~attacks in
    add served dt;
    check ok
  in
  let stream () =
    let dt, ok = stream_run ~cfg ~records ~attacks in
    add streamed dt;
    check ok
  in
  let direct_ () =
    let w0 = Gc.minor_words () and f0 = tl.failed in
    let dt, snap = direct_run ~cfg ~confirmed ~items ~records tl in
    minor_words := !minor_words +. (Gc.minor_words () -. w0);
    snaps := Obs.Snapshot.merge !snaps snap;
    add direct dt;
    check (tl.failed = f0)
  in
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let round = ref 0 in
  while now_ns () < deadline do
    (* a traced round takes all three paths, starting with each in turn,
       so that paths are compared within a round and the host's drift
       between rounds cancels *)
    if trace then
      List.iter (fun k -> [| serve; stream; direct_ |].((k + !round) mod 3) ()) [ 0; 1; 2 ]
    else serve ();
    incr round
  done;
  let setups = setups_before @ time_setups cfg in
  (try
     Sys.remove pcap;
     Sys.remove out
   with Sys_error _ -> ());
  let correct = !failed = 0 && served.len > 0 in
  let metrics =
    if trace then begin
      (* per record: each path's median run, and the median over rounds
         of the difference between two paths *)
      let per_record l = median_f l /. float_of_int n in
      let each s = List.init s.len (fun i -> float_of_int s.buf.(i)) in
      let diff x y = List.init x.len (fun i -> float_of_int (x.buf.(i) - y.buf.(i))) in
      let gate = median_f (List.map (fun (g, _) -> float_of_int g) setups) in
      layer_metrics ~before:Obs.Snapshot.empty ~after:!snaps tl ~minor_words:!minor_words
        {
          stream = per_record (each streamed);
          serve = per_record (each served);
          admission = per_record (diff streamed direct);
          control = per_record (List.map (fun d -> d -. gate) (diff served streamed));
        }
    end
    else
      let unit_of i = { first = i; stop = i + 1; busy = served.buf.(i); records = n } in
      end_to_end ~lat:served ~units:(List.init served.len unit_of) ~setups
  in
  print_result ~correct ~attempted:!attempted ~failed:!failed metrics

let main ~workload ~seed ~seconds ~trace =
  let items, base = (List.assoc workload workloads) (Rng.create (Int64.of_int seed)) in
  let cfg = configure workload base in
  if workload = "serve" then serve_loop ~cfg ~items ~seconds ~trace
  else closed_loop ~cfg ~items ~seconds ~trace

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let usage = "sanidsbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME  " ^ String.concat " | " (List.map fst workloads) );
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured time");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem_assoc !workload workloads) then begin
    prerr_endline ("sanidsbench: unknown workload '" ^ !workload ^ "'\n" ^ usage);
    exit 2
  end;
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("sanidsbench: --seconds must be positive and --trace 0 or 1\n" ^ usage);
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
