(* Exposition formats.  Output is deterministic: metrics render in name
   order (Snapshot.to_list is sorted), histogram buckets in ascending
   [le] order. *)

module Json = Sanids_util.Json

let float_str v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let add_hist_lines b name (h : Histogram.snap) =
  let cum = ref 0 in
  for i = 0 to Histogram.nbuckets - 1 do
    if h.Histogram.counts.(i) > 0 then begin
      cum := !cum + h.Histogram.counts.(i);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
           (float_str (Histogram.bucket_upper i))
           !cum)
    end
  done;
  Buffer.add_string b
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.Histogram.total);
  Buffer.add_string b (Printf.sprintf "%s_sum %s\n" name (float_str h.Histogram.sum));
  Buffer.add_string b (Printf.sprintf "%s_count %d\n" name h.Histogram.total)

let to_prometheus ?(help = fun _ -> None) snap =
  let b = Buffer.create 1024 in
  (* Labeled series of one family sort contiguously after their base
     name ('{' > any name character), so one [# HELP]/[# TYPE] header
     per base is emitted exactly once, before the family's first
     series. *)
  let last_base = ref "" in
  List.iter
    (fun (name, v) ->
      let base = Snapshot.base_name name in
      let fresh = base <> !last_base in
      last_base := base;
      if fresh then begin
        (match help name with
        | Some h when h <> "" ->
            Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" base h)
        | Some _ | None -> ());
        let kind =
          match v with
          | Snapshot.Counter _ -> "counter"
          | Snapshot.Gauge _ -> "gauge"
          | Snapshot.Hist _ -> "histogram"
        in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" base kind)
      end;
      match v with
      | Snapshot.Counter n -> Buffer.add_string b (Printf.sprintf "%s %d\n" name n)
      | Snapshot.Gauge g ->
          Buffer.add_string b (Printf.sprintf "%s %s\n" name (float_str g))
      | Snapshot.Hist h -> add_hist_lines b name h)
    (Snapshot.to_list snap);
  Buffer.contents b

let jsonl_of_value name v =
  let num f = Json.Number (float_str f) in
  let fields =
    match v with
    | Snapshot.Counter n -> [ ("type", Json.String "counter"); ("value", Json.int n) ]
    | Snapshot.Gauge g -> [ ("type", Json.String "gauge"); ("value", num g) ]
    | Snapshot.Hist h ->
        let buckets =
          List.filter_map
            (fun i ->
              let c = h.Histogram.counts.(i) in
              if c = 0 then None
              else Some (Json.List [ num (Histogram.bucket_upper i); Json.int c ]))
            (List.init Histogram.nbuckets Fun.id)
        in
        [
          ("type", Json.String "histogram");
          ("count", Json.int h.Histogram.total);
          ("sum", num h.Histogram.sum);
          ("buckets", Json.List buckets);
        ]
  in
  Json.to_string (Json.Obj (("metric", Json.String name) :: fields))

let to_jsonl snap =
  String.concat ""
    (List.map
       (fun (name, v) -> jsonl_of_value name v ^ "\n")
       (Snapshot.to_list snap))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)
