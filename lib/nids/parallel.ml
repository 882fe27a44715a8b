module Obs = Sanids_obs

let shard_of addr ~shards =
  if shards <= 0 then invalid_arg "Parallel.shard_of: shards must be positive";
  Ipaddr.hash addr mod shards

(* Hash the full flow 5-tuple.  Source-only sharding concentrates an
   outbreak (one worm source, many victims) onto a single worker; the
   5-tuple spreads its flows across every domain.  Non-TCP/UDP packets
   have no flow key and fall back to the source shard. *)
let flow_shard_of p ~shards =
  if shards <= 0 then
    invalid_arg "Parallel.flow_shard_of: shards must be positive";
  match Flow.key_of_packet p with
  | None -> shard_of (Packet.src p) ~shards
  | Some k ->
      let h = Ipaddr.hash k.Flow.src in
      let h = (h * 31) + Ipaddr.hash k.Flow.dst in
      let h = (h * 31) + k.Flow.src_port in
      let h = (h * 31) + k.Flow.dst_port in
      let h = (h * 31) + k.Flow.proto in
      h land max_int mod shards

(* Which sharding a configuration admits: per-source classifier state
   (honeypot marks, scan counters) requires all of a source's packets on
   one worker, so flow-hash sharding is only sound with classification
   off — then the pipeline's state is purely per-flow. *)
let shard_of_packet (cfg : Config.t) p ~shards =
  if cfg.Config.classification_enabled then shard_of (Packet.src p) ~shards
  else flow_shard_of p ~shards

let default_domains () = min 8 (max 1 (Domain.recommended_domain_count ()))

let merge_snapshots snaps =
  Array.fold_left Obs.Snapshot.merge Obs.Snapshot.empty snaps

let shed_total = "sanids_shed_total"
let worker_failures_total = "sanids_worker_failures_total"
let worker_restarts_total = "sanids_worker_restarts_total"

let all_policies = [ Bqueue.Drop_newest; Bqueue.Drop_oldest; Bqueue.Block ]

(* One worker generation on one shard.  When the watchdog retires a
   generation its pipeline is kept: a retired worker finishes the chunk
   it already popped (every popped packet is processed exactly once) and
   its partial metrics merge into the final snapshot. *)
type slot = {
  domain : unit Domain.t;
  nids : Pipeline.t;
  finished : bool Atomic.t;
}

let process_seq_snapshot ?domains ?(batch = 8192)
    ?(clock = Unix.gettimeofday) cfg packets on_alerts =
  let shards = match domains with Some d -> max 1 d | None -> default_domains () in
  (* long-lived workers behind bounded admission queues: each worker owns
     a persistent pipeline (classifier state survives the whole stream,
     exactly as in a sequential deployment) and drains its own queue, so
     a worker that falls behind holds at most [stream_queue_capacity]
     packets — the drop policy decides what happens to the excess *)
  let queues =
    Array.init shards (fun _ ->
        Bqueue.create ~capacity:cfg.Config.stream_queue_capacity
          cfg.Config.stream_drop_policy)
  in
  (* admission metrics live on the feeder side — shed packets never reach
     a worker registry *)
  let feeder_reg = Obs.Registry.create () in
  let shed_counters =
    List.map
      (fun p ->
        ( p,
          Obs.Registry.counter feeder_reg
            ~help:"packets shed at stream-mode admission"
            ~labels:[ ("policy", Bqueue.policy_to_string p) ]
            shed_total ))
      all_policies
  in
  let shed = List.assoc cfg.Config.stream_drop_policy shed_counters in
  let alert_mu = Mutex.create () in
  let emit alerts =
    if alerts <> [] then begin
      Mutex.lock alert_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock alert_mu)
        (fun () -> on_alerts alerts)
    end
  in
  (* Watchdog plumbing — active only when the analysis budget carries a
     wall-clock deadline (the stall threshold derives from it).  The
     watchdog domain owns its own registry; registries are
     single-domain, so it must not share the feeder's. *)
  let wd_cfg =
    match cfg.Config.analysis_budget with
    | Some l when l.Budget.deadline > 0.0 ->
        Some (Watchdog.config_for ~deadline:l.Budget.deadline)
    | Some _ | None -> None
  in
  let wd_active = wd_cfg <> None in
  let wd_reg = Obs.Registry.create () in
  let restarts_c =
    Obs.Registry.counter wd_reg
      ~help:"stalled workers abandoned and respawned by the watchdog"
      worker_restarts_total
  in
  let hb = Array.init shards (fun _ -> Atomic.make infinity) in
  let cur_gen = Array.init shards (fun _ -> Atomic.make 0) in
  let slots_mu = Mutex.create () in
  let retired = ref [] in
  let spawn_worker k gen =
    let nids = Pipeline.create cfg in
    let finished = Atomic.make false in
    let failures =
      Obs.Registry.counter (Pipeline.registry nids)
        ~help:"packets abandoned after analysis raised inside a worker"
        worker_failures_total
    in
    let body () =
      let q = queues.(k) in
      let beat v =
        (* only the live generation beats: a retired worker finishing
           its last chunk must not feed the replacement's heartbeat *)
        if wd_active && Atomic.get cur_gen.(k) = gen then Atomic.set hb.(k) v
      in
      let rec loop () =
        if Atomic.get cur_gen.(k) <> gen then ()  (* retired: stop popping *)
        else
          match Bqueue.pop_batch q ~max:batch with
          | [] -> ()
          | chunk ->
              let alerts =
                List.concat_map
                  (fun p ->
                    (* per-packet isolation: one poisoned packet costs
                       itself, not the shard *)
                    beat (clock ());
                    match Pipeline.process_packet nids p with
                    | alerts -> alerts
                    | exception _ ->
                        Obs.Registry.incr failures;
                        [])
                  chunk
              in
              beat infinity;
              emit alerts;
              loop ()
      in
      (* a worker must never abandon an open queue — a Block-policy feeder
         would wait on it forever.  If the loop itself dies (the alert
         callback raised), close the queue so admission degrades to
         shedding, and surface the abort as a worker failure; the shard's
         pipeline still contributes its partial (degraded) results. *)
      (try loop ()
       with _ ->
         Bqueue.close q;
         Obs.Registry.incr failures);
      beat infinity;
      Atomic.set finished true
    in
    { domain = Domain.spawn body; nids; finished }
  in
  let slots = Array.init shards (fun k -> spawn_worker k 0) in
  let stop = Atomic.make false in
  let wd_domain =
    Option.map
      (fun (wcfg : Watchdog.config) ->
        let wds = Array.init shards (fun _ -> Watchdog.create wcfg) in
        let poll = Float.max (wcfg.Watchdog.stall_after /. 4.0) 0.005 in
        Domain.spawn (fun () ->
            let exhausted = Array.make shards false in
            while not (Atomic.get stop) do
              Unix.sleepf poll;
              if not (Atomic.get stop) then
                for k = 0 to shards - 1 do
                  let b = Atomic.get hb.(k) in
                  let busy_since = if b = infinity then None else Some b in
                  match Watchdog.observe wds.(k) ~now:(clock ()) ~busy_since with
                  | Watchdog.Steady -> ()
                  | Watchdog.Restart ->
                      Obs.Registry.incr restarts_c;
                      Mutex.lock slots_mu;
                      retired := slots.(k) :: !retired;
                      let gen = Atomic.get cur_gen.(k) + 1 in
                      Atomic.set cur_gen.(k) gen;
                      Atomic.set hb.(k) infinity;
                      slots.(k) <- spawn_worker k gen;
                      Mutex.unlock slots_mu
                  | Watchdog.Exhausted ->
                      (* respawn cap spent: stop feeding the shard
                         instead of respawn-looping; the feeder's pushes
                         degrade to (counted) shedding *)
                      if not exhausted.(k) then begin
                        exhausted.(k) <- true;
                        Bqueue.close queues.(k)
                      end
                done
            done))
      wd_cfg
  in
  (* Batched admission: accumulate per-shard runs and push each run
     under one lock acquisition instead of locking per packet.  The held
     batch is bounded, and every shard flushes before the queues close,
     so no packet is lost to batching. *)
  let feed_batch = 256 in
  let pending = Array.make shards [] in
  let pending_n = Array.make shards 0 in
  let flush k =
    if pending_n.(k) > 0 then begin
      let res = Bqueue.push_batch queues.(k) (List.rev pending.(k)) in
      if res.Bqueue.shed > 0 then Obs.Registry.add shed res.Bqueue.shed;
      pending.(k) <- [];
      pending_n.(k) <- 0
    end
  in
  Seq.iter
    (fun p ->
      let k = shard_of_packet cfg p ~shards in
      pending.(k) <- p :: pending.(k);
      pending_n.(k) <- pending_n.(k) + 1;
      if pending_n.(k) >= feed_batch then flush k)
    packets;
  for k = 0 to shards - 1 do
    flush k
  done;
  Array.iter Bqueue.close queues;
  let final_slots, final_retired =
    match wd_cfg with
    | None ->
        (* no watchdog: exactly the pre-watchdog shutdown — unbounded
           joins on the original workers *)
        (Array.to_list slots, [])
    | Some wcfg ->
        (* wait (bounded) for every slot's current worker to drain its
           closed queue; the watchdog may retire and replace a wedged
           one while we wait *)
        let grace = 4.0 *. wcfg.Watchdog.stall_after in
        let all_done () =
          Mutex.lock slots_mu;
          let d = Array.for_all (fun s -> Atomic.get s.finished) slots in
          Mutex.unlock slots_mu;
          d
        in
        let rec drain t =
          if (not (all_done ())) && t > 0.0 then begin
            Unix.sleepf 0.01;
            drain (t -. 0.01)
          end
        in
        drain grace;
        Atomic.set stop true;
        Option.iter Domain.join wd_domain;
        (Array.to_list slots, !retired)
  in
  (* join whatever finished; a still-wedged domain (budget deadline
     failed to stop it) is leaked rather than waited on forever, its
     racy registry skipped and the loss surfaced as a worker failure *)
  let try_join s =
    match wd_cfg with
    | None ->
        Domain.join s.domain;
        true
    | Some wcfg ->
        let rec wait t =
          if Atomic.get s.finished then true
          else if t <= 0.0 then false
          else begin
            Unix.sleepf 0.005;
            wait (t -. 0.005)
          end
        in
        if wait (2.0 *. wcfg.Watchdog.stall_after) then begin
          Domain.join s.domain;
          true
        end
        else false
  in
  let leaked_c =
    Obs.Registry.counter wd_reg
      ~help:
        "worker domains still wedged at shutdown, leaked unjoined with \
         their metrics lost"
      worker_failures_total
  in
  let snaps =
    List.filter_map
      (fun s ->
        if try_join s then Some (Pipeline.snapshot s.nids)
        else begin
          Obs.Registry.incr leaked_c;
          None
        end)
      (final_slots @ final_retired)
  in
  Obs.Snapshot.merge
    (Obs.Snapshot.merge
       (merge_snapshots (Array.of_list snaps))
       (Obs.Registry.snapshot feeder_reg))
    (Obs.Registry.snapshot wd_reg)

let process_snapshot ?domains cfg packets =
  let alerts = ref [] in
  let snapshot =
    process_seq_snapshot ?domains cfg (List.to_seq packets) (fun a ->
        alerts := a :: !alerts)
  in
  (List.concat (List.rev !alerts), snapshot)

let process ?domains cfg packets =
  let alerts, snapshot = process_snapshot ?domains cfg packets in
  (alerts, Stats.of_snapshot snapshot)

let process_seq ?domains ?batch ?clock cfg packets on_alerts =
  Stats.of_snapshot
    (process_seq_snapshot ?domains ?batch ?clock cfg packets on_alerts)
