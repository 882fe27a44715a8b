(* Shared helpers for the benchmark harness: monotonic timing and table
   rendering.  Timing goes through sanids.obs histograms so the bench
   reports the same quantile machinery the NIDS exports at runtime. *)

module Obs = Sanids_obs

(* Seconds on the monotonic clock: only differences are meaningful, and
   a wall-clock step cannot make them negative. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Run [f] once, recording its elapsed time into histogram [h]. *)
let time_into h f =
  let t0 = now () in
  let x = f () in
  Obs.Histogram.observe h (now () -. t0);
  x

(* Run [f] [reps] times into a fresh histogram; return the last result
   and the snapshot. *)
let measure ?(reps = 1) f =
  let h = Obs.Histogram.create () in
  let x = ref (time_into h f) in
  for _ = 2 to reps do
    x := time_into h f
  done;
  (!x, Obs.Histogram.snap h)

let seconds s = Printf.sprintf "%.4f s" (Obs.Histogram.sum s)

(* "n=20 mean=1.2ms p50<=2.0ms p95<=4.1ms" — quantiles are octave upper
   bounds, see Histogram.quantile. *)
let hist_summary s =
  let dur v = Format.asprintf "%a" Obs.Histogram.pp_duration v in
  Printf.sprintf "n=%d mean=%s p50<=%s p95<=%s" (Obs.Histogram.count s)
    (dur (Obs.Histogram.mean s))
    (dur (Obs.Histogram.quantile s 0.5))
    (dur (Obs.Histogram.quantile s 0.95))

let hr title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let sub title = Printf.printf "\n-- %s --\n" title

let row fmt = Printf.printf fmt

(* A fixed-width table: header then rows. *)
let table headers rows =
  let ncol = List.length headers in
  let widths = Array.make ncol 0 in
  List.iteri (fun i h -> widths.(i) <- String.length h) headers;
  List.iter
    (fun r ->
      List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) r)
    rows;
  let pad i s = s ^ String.make (widths.(i) - String.length s) ' ' in
  let line cells = print_endline ("  " ^ String.concat "  " (List.mapi pad cells)) in
  line headers;
  line (List.mapi (fun i _ -> String.make widths.(i) '-') headers);
  List.iter line rows

let pct num den =
  if den = 0 then "n/a" else Printf.sprintf "%d%%" (num * 100 / den)

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  note: %s\n" s) fmt
