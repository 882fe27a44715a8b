(* The shipping sidecar around the serve engine.

   Threading: three actors share one small mutex'd state record.  The
   engine's feeder thread (inside [Serve.run]) calls the [on_delta]
   hook — journal + enqueue, never blocking on the network.  A
   dedicated sender sys-thread drains the queue head-of-line: one
   delta at a time, retried on the {!Backoff} schedule until acked, so
   delivery to the aggregator is in order unless the test channel
   reorders it.  The main thread runs [Serve.run] and afterwards
   flushes: the sender exits once the engine is done *and* the queue
   is empty (or [flush_timeout] gives up and leaves the rest spooled
   for the next incarnation). *)

module Obs = Sanids_obs
module Httpd = Sanids_serve.Httpd
module Serve = Sanids_serve.Serve

type options = {
  sensor_id : string;
  aggregator : Httpd.listen;
  spool_dir : string;
  serve : Serve.options;
  ship_every : float;
  backoff : Backoff.t;
  connect_timeout : float;
  heartbeat_every : float;
  channel_fault : Fault.t;
  fault_seed : int64;
  flush_timeout : float option;
}

type error =
  | Invalid_id of string
  | Unreachable of string
  | Spool_error of string
  | Serve_error of Serve.error
  | Flush_timeout of int

let error_to_string = function
  | Invalid_id id -> Printf.sprintf "invalid sensor id %S" id
  | Unreachable m -> "aggregator unreachable: " ^ m
  | Spool_error m -> m
  | Serve_error e -> Serve.error_to_string e
  | Flush_timeout n ->
      Printf.sprintf "flush timed out with %d deltas spooled for replay" n

let say fmt =
  Printf.ksprintf (fun s -> print_string s; print_newline (); flush stdout) fmt

(* ------------------------------------------------------------------ *)
(* What ships: interval counters and histogram increments.  Gauges are
   level signals — summing them across deltas is meaningless — and
   all-zero deltas carry nothing heartbeats don't. *)

let strip_gauges snap =
  Obs.Snapshot.to_list snap
  |> List.filter (fun (_, v) ->
         match v with Obs.Snapshot.Gauge _ -> false | _ -> true)
  |> Obs.Snapshot.of_list

let worth_shipping snap =
  List.exists
    (fun (_, v) ->
      match v with
      | Obs.Snapshot.Counter n -> n > 0
      | Obs.Snapshot.Hist h -> h.Obs.Histogram.total > 0
      | Obs.Snapshot.Gauge _ -> false)
    (Obs.Snapshot.to_list snap)

(* ------------------------------------------------------------------ *)

type sender = {
  mutex : Mutex.t;
  queue : (int * int * string) Queue.t;  (* epoch, seq, encoded delta *)
  mutable engine_done : bool;  (* no more deltas will be enqueued *)
  mutable give_up : bool;  (* flush timeout: exit with the queue non-empty *)
  mutable acked : int;
  mutable last_contact : float;  (* last successful ack or heartbeat *)
}

let with_lock st f =
  Mutex.lock st.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.mutex) f

let enqueue st item = with_lock st (fun () -> Queue.push item st.queue)

let post options ~path body =
  match
    Httpd.request ~timeout:options.backoff.Backoff.timeout
      ~backoff:options.backoff ~read_timeout:options.backoff.Backoff.timeout
      ~body options.aggregator ~verb:"POST" ~path ()
  with
  | Ok (200, resp) -> Ok resp
  | Ok (status, resp) -> Error (Printf.sprintf "%d %s" status (String.trim resp))
  | Error m -> Error m

(* One shipping attempt under the (test-only) channel fault plan.  A
   corrupted attempt really goes on the wire — truncated mid-payload so
   the aggregator's decoder rejects it and its malformed counter moves
   — and then reports failure so the ordinary retry path re-sends. *)
let attempt_ship options rng payload =
  match Fault.next_action rng options.channel_fault with
  | Fault.Deliver -> post options ~path:"/-/delta" payload
  | Fault.Lose -> Error "channel fault: drop"
  | Fault.Send_twice -> (
      match post options ~path:"/-/delta" payload with
      | Ok resp ->
          ignore (post options ~path:"/-/delta" payload);
          Ok resp
      | Error _ as e -> e)
  | Fault.Sleep d ->
      Unix.sleepf d;
      post options ~path:"/-/delta" payload
  | Fault.Corrupt ->
      let cut = max 1 (String.length payload / 2) in
      ignore (post options ~path:"/-/delta" (String.sub payload 0 cut));
      Error "channel fault: truncate"

let heartbeat options st =
  if options.heartbeat_every > 0.0 then begin
    let due =
      with_lock st (fun () ->
          Unix.gettimeofday () -. st.last_contact >= options.heartbeat_every)
    in
    if due then
      match
        post options ~path:"/-/heartbeat"
          (Printf.sprintf "sensor=%s\n" options.sensor_id)
      with
      | Ok _ -> with_lock st (fun () -> st.last_contact <- Unix.gettimeofday ())
      | Error _ -> ()  (* best effort; the detector is the judge *)
  end

let sender_loop options spool st () =
  let rng = Rng.create options.fault_seed in
  let rec loop attempt =
    let item, stop =
      with_lock st (fun () ->
          let item = Queue.peek_opt st.queue in
          (item, st.give_up || (st.engine_done && item = None)))
    in
    if stop then ()
    else
      match item with
      | None ->
          heartbeat options st;
          Unix.sleepf 0.02;
          loop 0
      | Some (epoch, seq, payload) -> (
          match attempt_ship options rng payload with
          | Ok _resp ->
              with_lock st (fun () ->
                  ignore (Queue.pop st.queue);
                  st.acked <- st.acked + 1;
                  st.last_contact <- Unix.gettimeofday ());
              Spool.ack spool ~epoch ~seq;
              loop 0
          | Error m ->
              Logs.debug (fun f ->
                  f "sensor %s: ship %d/%d attempt %d: %s" options.sensor_id
                    epoch seq attempt m);
              Unix.sleepf
                (Backoff.delay options.backoff ~seed:options.fault_seed ~attempt);
              heartbeat options st;
              loop (attempt + 1))
  in
  loop 0

(* ------------------------------------------------------------------ *)

let run options =
  if not (Delta.valid_sensor_id options.sensor_id) then
    Error (Invalid_id options.sensor_id)
  else
    (* Probe before anything else: a sensor that cannot reach its
       aggregator should fail fast with a typed error (EX_UNAVAILABLE
       at the CLI), not serve into the void. *)
    match
      Httpd.request ~timeout:options.connect_timeout ~backoff:options.backoff
        ~read_timeout:options.backoff.Backoff.timeout options.aggregator
        ~verb:"GET" ~path:"/healthz" ()
    with
    | Error m -> Error (Unreachable m)
    | Ok (status, _) when status <> 200 ->
        Error (Unreachable (Printf.sprintf "/healthz returned %d" status))
    | Ok _ -> (
        match Spool.open_dir options.spool_dir with
        | Error m -> Error (Spool_error m)
        | Ok spool ->
            let epoch = Spool.epoch spool in
            say "sensor %s: epoch=%d spool=%s" options.sensor_id epoch
              options.spool_dir;
            let st =
              {
                mutex = Mutex.create ();
                queue = Queue.create ();
                engine_done = false;
                give_up = false;
                acked = 0;
                last_contact = Unix.gettimeofday ();
              }
            in
            (* Replay first: prior incarnations' unacked deltas go to
               the head of the line, in (epoch, seq) order.  An entry
               that does not decode would be rejected on every retry
               and block everything behind it, so it is dropped. *)
            let pend, bad =
              List.partition
                (fun (_, _, d) -> Result.is_ok (Delta.decode d))
                (Spool.pending spool)
            in
            List.iter (fun (epoch, seq, _) -> Spool.ack spool ~epoch ~seq) bad;
            if bad <> [] then
              say "sensor %s: dropped=%d undecodable spool entries" options.sensor_id
                (List.length bad);
            List.iter (fun item -> enqueue st item) pend;
            if pend <> [] then
              say "sensor %s: replayed=%d" options.sensor_id (List.length pend);
            let sender = Thread.create (sender_loop options spool st) () in
            let seq = ref 0 in
            let hook delta =
              let delta = strip_gauges delta in
              if worth_shipping delta then begin
                incr seq;
                let d =
                  {
                    Delta.sensor = options.sensor_id;
                    epoch;
                    seq = !seq;
                    snapshot = delta;
                  }
                in
                let payload = Delta.encode d in
                (match Spool.journal spool ~seq:!seq payload with
                | Ok () -> ()
                | Error m ->
                    (* keep shipping — durability is degraded, delivery
                       is not *)
                    Logs.err (fun f -> f "sensor %s: %s" options.sensor_id m));
                enqueue st (epoch, !seq, payload)
              end
            in
            let serve_options =
              {
                options.serve with
                Serve.snapshot_every = options.ship_every;
                on_delta = Some hook;
              }
            in
            let served = Serve.run serve_options in
            with_lock st (fun () -> st.engine_done <- true);
            let flush_deadline =
              match options.flush_timeout with
              | Some s -> Unix.gettimeofday () +. s
              | None -> infinity
            in
            let rec flush () =
              let left = with_lock st (fun () -> Queue.length st.queue) in
              if left = 0 then Ok ()
              else if Unix.gettimeofday () > flush_deadline then begin
                with_lock st (fun () -> st.give_up <- true);
                Error left
              end
              else begin
                Unix.sleepf 0.02;
                flush ()
              end
            in
            let flushed = flush () in
            Thread.join sender;
            (match flushed with
            | Ok () -> ()
            | Error n ->
                say "sensor %s: %d deltas spooled for replay" options.sensor_id n);
            (match served with
            | Error e -> Error (Serve_error e)
            | Ok () -> (
                match flushed with
                | Error n -> Error (Flush_timeout n)
                | Ok () ->
                    say "sensor %s: drained epoch=%d shipped=%d"
                      options.sensor_id epoch
                      (with_lock st (fun () -> st.acked));
                    Ok ())))
