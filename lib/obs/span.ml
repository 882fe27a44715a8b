module Json = Sanids_util.Json

external now_ns : unit -> (int[@untagged])
  = "sanids_obs_now_ns_byte" "sanids_obs_now_ns"
[@@noalloc]

type tracer = {
  oc : out_channel;
  sample : int;  (* emit every [sample]-th span *)
  mutable seen : int;
  mutable emitted : int;
  lock : Mutex.t;  (* spans may come from several domains *)
}

let tracer ?(sample = 1) oc =
  if sample <= 0 then invalid_arg "Span.tracer: sample must be positive";
  { oc; sample; seen = 0; emitted = 0; lock = Mutex.create () }

let emitted t = t.emitted

let flush t =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) (fun () -> flush t.oc)

(* One JSONL event per sampled span:
     {"span":"match","ts":1723043.123456,"dur_us":81.3,"seq":7}
   [ts] is the span's start on the gettimeofday clock — the wall clock
   read at the end, less the monotonic duration — and [seq] numbers
   emitted events per tracer. *)
let emit t name ~dur_ns =
  let dur = float_of_int dur_ns /. 1e9 in
  let ts = Unix.gettimeofday () -. dur in
  Mutex.lock t.lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.lock)
    (fun () ->
      t.seen <- t.seen + 1;
      if t.seen mod t.sample = 0 then begin
        output_string t.oc
          (Json.to_string
             (Json.Obj
                [
                  ("span", Json.String name);
                  ("ts", Json.Number (Printf.sprintf "%.6f" ts));
                  ("dur_us", Json.Number (Printf.sprintf "%.3f" (dur *. 1e6)));
                  ("seq", Json.int t.emitted);
                ])
          ^ "\n");
        t.emitted <- t.emitted + 1
      end)

let metric_of_stage name = "sanids_stage_" ^ name ^ "_seconds"

let sample_period = 16

type stage = {
  h : Histogram.t;
  stage_name : string;
  tracer : tracer option;
  sampled : bool;
  mutable skip : int;  (* calls left to pass untimed before the next timed one *)
  mutable rng : int;  (* the gap generator's xorshift32 state, never 0 *)
  mutable last : int;  (* the last timed duration, ns *)
}

let stage ?tracer ?(sampled = false) reg name =
  (* a trace wants every call's own duration *)
  let sampled = sampled && Option.is_none tracer in
  let help =
    if sampled then
      Printf.sprintf
        "latency of the %s stage, timed on about 1 call in %d (an untimed call \
         records the last timed duration)"
        name sample_period
    else Printf.sprintf "latency of the %s stage" name
  in
  {
    h = Registry.histogram reg ~help (metric_of_stage name);
    stage_name = name;
    tracer;
    sampled;
    skip = 0;
    rng = (Hashtbl.hash name land 0xFFFFFFFF) lor 1;
    last = 0;
  }

(* The number of calls to skip after a timed one: uniform on
   [0, 2 * sample_period - 2], so one call in [sample_period] is timed
   on average, and a replayed pool of any length is not sampled at the
   same records on every pass. *)
let gap st =
  let x = st.rng in
  let x = x lxor ((x lsl 13) land 0xFFFFFFFF) in
  let x = x lxor (x lsr 17) in
  let x = x lxor ((x lsl 5) land 0xFFFFFFFF) in
  st.rng <- x;
  x mod ((2 * sample_period) - 1)

(* Whether this call is timed, advancing the sampler.  An exact stage's
   [skip] stays 0. *)
let timed st =
  if st.skip > 0 then begin
    st.skip <- st.skip - 1;
    false
  end
  else begin
    if st.sampled then st.skip <- gap st;
    true
  end

let record st dur =
  st.last <- dur;
  Histogram.observe_ns st.h dur;
  match st.tracer with None -> () | Some t -> emit t st.stage_name ~dur_ns:dur

(* CLOCK_MONOTONIC stamps are never negative. *)
let untimed = -1

let start st = if timed st then now_ns () else untimed

let stop st t0 =
  if t0 = untimed then Histogram.observe_ns st.h st.last else record st (now_ns () - t0)

let observe_ns st dur = if timed st then record st dur else Histogram.observe_ns st.h st.last

let with_ ?tracer reg name f =
  let st = stage ?tracer reg name in
  let t0 = start st in
  match f () with
  | r ->
      stop st t0;
      r
  | exception e ->
      stop st t0;
      raise e
