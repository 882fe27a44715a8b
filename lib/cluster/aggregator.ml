(* The aggregation daemon.  All cluster state lives behind one mutex:
   the Httpd handler thread mutates it on every delta/heartbeat, the
   main thread reads it on every detector tick and at drain.  The
   dedup state itself is a pure value in a ref — handlers fold, tests
   fold, nobody shares structure dangerously. *)

module Obs = Sanids_obs
module Httpd = Sanids_serve.Httpd
module Serve = Sanids_serve.Serve

type options = {
  listen : Httpd.listen;
  detector : Detector.config;
  tick_every : float;
  clock : unit -> float;
  install_signals : bool;
}

let default_options =
  {
    listen = Httpd.Unix_socket "";
    detector = Detector.default_config;
    tick_every = 0.2;
    clock = Unix.gettimeofday;
    install_signals = true;
  }

let say fmt =
  Printf.ksprintf (fun s -> print_string s; print_newline (); flush stdout) fmt

type sensor_track = {
  mutable last_heard : float;
  mutable state : Detector.state;
  staleness : Obs.Registry.gauge;
}

type t = {
  mutex : Mutex.t;
  mutable dedup : Dedup.t;
  sensors : (string, sensor_track) Hashtbl.t;
  mutable stop : bool;
  reg : Obs.Registry.t;
  fresh : Obs.Registry.counter;
  duplicate : Obs.Registry.counter;
  malformed : Obs.Registry.counter;
  heartbeats : Obs.Registry.counter;
  state_gauges : (Detector.state * Obs.Registry.gauge) list;
}

let make () =
  let reg = Obs.Registry.create () in
  let delta outcome =
    Obs.Registry.counter reg ~help:"deltas received by outcome"
      ~labels:[ ("outcome", outcome) ] "sanids_cluster_deltas_total"
  in
  (* pre-register every label value so a scrape always sees the family *)
  let fresh = delta "fresh" in
  let duplicate = delta "duplicate" in
  let malformed = delta "malformed" in
  let heartbeats =
    Obs.Registry.counter reg ~help:"heartbeats received"
      "sanids_cluster_heartbeats_total"
  in
  let state_gauges =
    List.map
      (fun s ->
        ( s,
          Obs.Registry.gauge reg ~help:"sensors by failure-detector state"
            ~labels:[ ("state", Detector.state_to_string s) ]
            "sanids_cluster_sensors" ))
      Detector.all_states
  in
  {
    mutex = Mutex.create ();
    dedup = Dedup.empty;
    sensors = Hashtbl.create 8;
    stop = false;
    reg;
    fresh;
    duplicate;
    malformed;
    heartbeats;
    state_gauges;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let export_states t =
  List.iter
    (fun (s, g) ->
      let n =
        Hashtbl.fold
          (fun _ track acc -> if track.state = s then acc + 1 else acc)
          t.sensors 0
      in
      Obs.Registry.set_gauge g (float_of_int n))
    t.state_gauges

(* Under the lock.  Every delta and heartbeat lands here. *)
let heard options t id =
  let track =
    match Hashtbl.find_opt t.sensors id with
    | Some track -> track
    | None ->
        let track =
          {
            last_heard = options.clock ();
            state = Detector.Alive;
            staleness =
              Obs.Registry.gauge t.reg
                ~help:"seconds since this sensor was last heard"
                ~labels:[ ("sensor", id) ]
                "sanids_cluster_staleness_seconds";
          }
        in
        Hashtbl.replace t.sensors id track;
        say "aggregate: sensor=%s state=alive" id;
        track
  in
  track.last_heard <- options.clock ();
  Obs.Registry.set_gauge track.staleness 0.0;
  let next = Detector.step options.detector track.state Detector.Heard in
  if next <> track.state then
    say "aggregate: sensor=%s state=%s" id (Detector.state_to_string next);
  track.state <- next;
  export_states t

let tick options t =
  with_lock t (fun () ->
      let now = options.clock () in
      Hashtbl.iter
        (fun id track ->
          let silence = Float.max 0.0 (now -. track.last_heard) in
          Obs.Registry.set_gauge track.staleness silence;
          let next =
            Detector.step options.detector track.state
              (Detector.Silence silence)
          in
          if next <> track.state then
            say "aggregate: sensor=%s state=%s" id
              (Detector.state_to_string next);
          track.state <- next)
        t.sensors;
      export_states t)

(* ------------------------------------------------------------------ *)

let handle_delta options t body =
  match Delta.decode body with
  | Error m ->
      Obs.Registry.incr t.malformed;
      Httpd.error 400 (Printf.sprintf "malformed delta: %s\n" m)
  | Ok d ->
      let outcome =
        with_lock t (fun () ->
            let dedup, outcome = Dedup.apply t.dedup d in
            t.dedup <- dedup;
            heard options t d.Delta.sensor;
            outcome)
      in
      let outcome_s =
        match outcome with
        | Dedup.Fresh ->
            Obs.Registry.incr t.fresh;
            "fresh"
        | Dedup.Duplicate ->
            Obs.Registry.incr t.duplicate;
            "duplicate"
      in
      Httpd.ok ~content_type:"text/plain"
        (Printf.sprintf "ack epoch=%d seq=%d %s\n" d.Delta.epoch d.Delta.seq
           outcome_s)

(* A heartbeat body is the one-key spec [sensor=<id>]. *)
let heartbeat_body =
  let id =
    Spec.value ~what:"a sensor id"
      (fun s -> if Delta.valid_sensor_id s then Some s else None)
      Fun.id
  in
  Spec.record "heartbeat" "" [ Spec.setter "sensor" id (fun id _ -> id) ]

let handle_heartbeat options t body =
  match heartbeat_body.Spec.parse body with
  | Ok id when id <> "" ->
      Obs.Registry.incr t.heartbeats;
      with_lock t (fun () -> heard options t id);
      Httpd.ok ~content_type:"text/plain" "ok\n"
  | Ok _ -> Httpd.error 400 "expected sensor=<id>\n"
  | Error m -> Httpd.error 400 (m ^ "\n")

let sensors_lines t =
  with_lock t (fun () ->
      Dedup.sensors t.dedup
      |> List.map (fun id ->
             let s =
               match Dedup.stats t.dedup id with
               | Some s -> s
               | None -> assert false
             in
             let state =
               match Hashtbl.find_opt t.sensors id with
               | Some track -> Detector.state_to_string track.state
               | None -> "alive"
             in
             Printf.sprintf
               "sensor=%s state=%s epoch=%d seq=%d epochs=%d applied=%d duplicates=%d\n"
               id state s.Dedup.last_epoch s.Dedup.last_seq s.Dedup.epochs
               s.Dedup.applied s.Dedup.duplicates)
      |> String.concat "")

let handler options t req =
  match (req.Httpd.verb, req.Httpd.path) with
  | ("GET" | "HEAD"), "/metrics" ->
      let view, help =
        with_lock t (fun () -> (Dedup.view t.dedup, Obs.Registry.help t.reg))
      in
      Httpd.ok
        (Obs.Export.to_prometheus ~help
           (Obs.Snapshot.merge (Obs.Registry.snapshot t.reg) view))
  | ("GET" | "HEAD"), "/healthz" ->
      let n = with_lock t (fun () -> Hashtbl.length t.sensors) in
      Httpd.ok ~content_type:"text/plain" (Printf.sprintf "ok sensors=%d\n" n)
  | ("GET" | "HEAD"), "/-/sensors" ->
      Httpd.ok ~content_type:"text/plain" (sensors_lines t)
  | ("POST" | "GET"), "/-/delta" -> handle_delta options t req.Httpd.body
  | ("POST" | "GET"), "/-/heartbeat" -> handle_heartbeat options t req.Httpd.body
  | ("POST" | "GET"), "/-/drain" ->
      with_lock t (fun () -> t.stop <- true);
      Httpd.ok ~content_type:"text/plain" "draining\n"
  | _, ("/metrics" | "/healthz" | "/-/sensors" | "/-/delta" | "/-/heartbeat" | "/-/drain")
    ->
      Httpd.error 405 "method not allowed\n"
  | _ -> Httpd.error 404 "not found\n"

(* ------------------------------------------------------------------ *)

(* The daemon's reconciliation identity, summed across the fleet.
   Exact because deltas are interval counters, dedup is idempotent,
   and merge is commutative: in a quiescent cluster (every sensor
   drained and flushed) the merged view carries precisely each
   sensor's final accounting. *)
let summary t =
  with_lock t (fun () ->
      List.iter
        (fun id ->
          match Dedup.stats t.dedup id with
          | None -> ()
          | Some s ->
              let state =
                match Hashtbl.find_opt t.sensors id with
                | Some track -> Detector.state_to_string track.state
                | None -> "alive"
              in
              say
                "aggregate: sensor=%s state=%s epochs=%d applied=%d duplicates=%d last=%d/%d"
                id state s.Dedup.epochs s.Dedup.applied s.Dedup.duplicates
                s.Dedup.last_epoch s.Dedup.last_seq)
        (Dedup.sensors t.dedup);
      say "aggregate: cluster %s" (fst (Serve.reconciliation (Dedup.view t.dedup)));
      say "aggregate: stopped sensors=%d" (Hashtbl.length t.sensors))

let run options =
  let t = make () in
  let sigterm = Atomic.make false in
  if options.install_signals then begin
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ | Sys_error _ -> ());
    try
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Atomic.set sigterm true))
    with Invalid_argument _ | Sys_error _ -> ()
  end;
  match Httpd.start options.listen (handler options t) with
  | Error m -> Error m
  | Ok h ->
      say "aggregate: listening %s" (Httpd.address h);
      let rec loop () =
        if Atomic.exchange sigterm false then
          with_lock t (fun () -> t.stop <- true);
        let stop = with_lock t (fun () -> t.stop) in
        if not stop then begin
          Unix.sleepf options.tick_every;
          tick options t;
          loop ()
        end
      in
      loop ();
      Httpd.stop h;
      summary t;
      Ok ()
