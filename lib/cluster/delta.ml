(* The delta wire codec.

   Format (one metric per line after the header, [metrics=] counts
   them — the cheap truncation detector):

     sanids-delta/1 sensor=web-1 epoch=3 seq=17 metrics=4
     c sanids_packets_total 128
     c sanids_ingest_errors_total{reason="ipv4"} 2
     g sanids_config_generation 0x1p+0
     h sanids_stage_analyze_seconds 0x1.4p-3 17 31:12,32:5

   Counter values are decimal ints; gauge values and histogram sums
   are hexadecimal floats (%h) so the codec round-trips bit-exact —
   the dedup layer's exactness proof is only as good as the wire.
   Histograms carry total observations and sparse [bucket:count]
   pairs ([-] when empty).  Metric names are percent-encoded because
   labeled series names embed quoted label values that could in
   principle carry spaces or newlines. *)

module Obs = Sanids_obs

type t = {
  sensor : string;
  epoch : int;
  seq : int;
  snapshot : Obs.Snapshot.t;
}

let magic = "sanids-delta/1"

let valid_sensor_id s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* ------------------------------------------------------------------ *)
(* name escaping *)

let hex = "0123456789ABCDEF"

let escape_name s =
  let needs =
    String.exists
      (function ' ' | '%' | '\n' | '\r' | '\t' -> true | _ -> false)
      s
  in
  if not needs then s
  else begin
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | ' ' | '%' | '\n' | '\r' | '\t' ->
            Buffer.add_char b '%';
            Buffer.add_char b hex.[Char.code c lsr 4];
            Buffer.add_char b hex.[Char.code c land 0xf]
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  end

let unescape_name s =
  let n = String.length s in
  let b = Buffer.create n in
  let hexval c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  let rec go i =
    if i >= n then Ok (Buffer.contents b)
    else if s.[i] = '%' then
      if i + 2 >= n then Error "truncated escape in metric name"
      else
        match (hexval s.[i + 1], hexval s.[i + 2]) with
        | Some h, Some l ->
            Buffer.add_char b (Char.chr ((h lsl 4) lor l));
            go (i + 3)
        | _ -> Error "bad escape in metric name"
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* floats: %h round-trips exactly through float_of_string *)

let float_wire f = Printf.sprintf "%h" f

let float_unwire s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad float %S" s)

(* ------------------------------------------------------------------ *)

let encode t =
  let metrics = Obs.Snapshot.to_list t.snapshot in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%s sensor=%s epoch=%d seq=%d metrics=%d\n" magic t.sensor
       t.epoch t.seq (List.length metrics));
  List.iter
    (fun (name, v) ->
      let name = escape_name name in
      match v with
      | Obs.Snapshot.Counter n ->
          Buffer.add_string b (Printf.sprintf "c %s %d\n" name n)
      | Obs.Snapshot.Gauge g ->
          Buffer.add_string b (Printf.sprintf "g %s %s\n" name (float_wire g))
      | Obs.Snapshot.Hist h ->
          let pairs = Buffer.create 64 in
          Array.iteri
            (fun i c ->
              if c > 0 then begin
                if Buffer.length pairs > 0 then Buffer.add_char pairs ',';
                Buffer.add_string pairs (Printf.sprintf "%d:%d" i c)
              end)
            h.Obs.Histogram.counts;
          let pairs = if Buffer.length pairs = 0 then "-" else Buffer.contents pairs in
          Buffer.add_string b
            (Printf.sprintf "h %s %s %d %s\n" name
               (float_wire h.Obs.Histogram.sum)
               h.Obs.Histogram.total pairs))
    metrics;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let int_field token key =
  match String.index_opt token '=' with
  | Some i when String.sub token 0 i = key -> (
      match
        int_of_string_opt (String.sub token (i + 1) (String.length token - i - 1))
      with
      | Some n when n >= 0 -> Ok n
      | Some _ | None -> Error (Printf.sprintf "bad %s in header" key))
  | _ -> Error (Printf.sprintf "expected %s= in header" key)

let str_field token key =
  match String.index_opt token '=' with
  | Some i when String.sub token 0 i = key ->
      Ok (String.sub token (i + 1) (String.length token - i - 1))
  | _ -> Error (Printf.sprintf "expected %s= in header" key)

let decode_header line =
  match String.split_on_char ' ' line with
  | [ m; sensor; epoch; seq; metrics ] when m = magic ->
      let* sensor = str_field sensor "sensor" in
      if not (valid_sensor_id sensor) then
        Error (Printf.sprintf "invalid sensor id %S" sensor)
      else
        let* epoch = int_field epoch "epoch" in
        let* seq = int_field seq "seq" in
        let* metrics = int_field metrics "metrics" in
        Ok (sensor, epoch, seq, metrics)
  | m :: _ when m <> magic -> Error (Printf.sprintf "not a %s document" magic)
  | _ -> Error "malformed header"

let decode_hist_pairs pairs total =
  let counts = Array.make Obs.Histogram.nbuckets 0 in
  let* () =
    if pairs = "-" then Ok ()
    else
      List.fold_left
        (fun acc pair ->
          let* () = acc in
          match String.index_opt pair ':' with
          | None -> Error (Printf.sprintf "bad bucket pair %S" pair)
          | Some i -> (
              let idx = int_of_string_opt (String.sub pair 0 i) in
              let c =
                int_of_string_opt
                  (String.sub pair (i + 1) (String.length pair - i - 1))
              in
              match (idx, c) with
              | Some idx, Some c
                when idx >= 0 && idx < Obs.Histogram.nbuckets && c > 0 ->
                  counts.(idx) <- counts.(idx) + c;
                  Ok ()
              | _ -> Error (Printf.sprintf "bad bucket pair %S" pair)))
        (Ok ())
        (String.split_on_char ',' pairs)
  in
  let computed = Array.fold_left ( + ) 0 counts in
  if computed <> total then
    Error
      (Printf.sprintf "histogram total %d does not match buckets %d" total
         computed)
  else Ok counts

let decode_line line =
  match String.split_on_char ' ' line with
  | [ "c"; name; v ] -> (
      let* name = unescape_name name in
      match int_of_string_opt v with
      | Some n -> Ok (name, Obs.Snapshot.Counter n)
      | None -> Error (Printf.sprintf "bad counter value %S" v))
  | [ "g"; name; v ] ->
      let* name = unescape_name name in
      let* g = float_unwire v in
      Ok (name, Obs.Snapshot.Gauge g)
  | [ "h"; name; sum; total; pairs ] -> (
      let* name = unescape_name name in
      let* sum = float_unwire sum in
      match int_of_string_opt total with
      | Some total when total >= 0 ->
          let* counts = decode_hist_pairs pairs total in
          Ok (name, Obs.Snapshot.Hist { Obs.Histogram.counts; sum; total })
      | Some _ | None -> Error (Printf.sprintf "bad histogram total %S" total))
  | _ -> Error (Printf.sprintf "malformed metric line %S" line)

let decode text =
  match String.split_on_char '\n' text with
  | [] | [ "" ] -> Error "empty delta"
  | header :: rest ->
      let* sensor, epoch, seq, metrics = decode_header header in
      (* the document ends with a newline, so a clean split leaves one
         trailing "" — anything else is truncation or garbage *)
      let lines, trailing_ok =
        match List.rev rest with
        | "" :: body -> (List.rev body, true)
        | _ -> (rest, false)
      in
      if not trailing_ok then Error "truncated delta (no final newline)"
      else if List.length lines <> metrics then
        Error
          (Printf.sprintf "truncated delta (%d of %d metric lines)"
             (List.length lines) metrics)
      else
        let* entries =
          List.fold_left
            (fun acc line ->
              let* acc = acc in
              let* entry = decode_line line in
              Ok (entry :: acc))
            (Ok []) lines
        in
        Ok { sensor; epoch; seq; snapshot = Obs.Snapshot.of_list entries }
