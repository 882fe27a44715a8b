module Json = Sanids_util.Json

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
   [ts] is the span's start on the gettimeofday clock, [seq] numbers
   emitted events per tracer. *)
let emit t name ~ts ~dur =
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

type stage = { h : Histogram.t; stage_name : string }

let stage reg name =
  {
    h =
      Registry.histogram reg
        ~help:(Printf.sprintf "latency of the %s stage" name)
        (metric_of_stage name);
    stage_name = name;
  }

(* Hand-rolled rather than Fun.protect: this wraps every packet's
   classify span, so the finally-closure allocation is worth avoiding. *)
let time ?tracer st f =
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dur = Unix.gettimeofday () -. t0 in
    Histogram.observe st.h dur;
    match tracer with None -> () | Some t -> emit t st.stage_name ~ts:t0 ~dur
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let with_ ?tracer reg name f = time ?tracer (stage reg name) f
