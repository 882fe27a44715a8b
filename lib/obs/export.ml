(* Exposition formats.  Output is deterministic: metrics render in name
   order (Snapshot.to_list is sorted), histogram buckets in ascending
   [le] order.  Every float goes through [Spec.float_to_string], which
   reads back to the same bits. *)

module Json = Sanids_util.Json
module Spec = Sanids_util.Spec

let add_hist_lines b name (h : Histogram.snap) =
  let cum = ref 0 in
  for i = 0 to Histogram.nbuckets - 1 do
    if h.Histogram.counts.(i) > 0 then begin
      cum := !cum + h.Histogram.counts.(i);
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
           (Spec.float_to_string (Histogram.bucket_upper i))
           !cum)
    end
  done;
  Buffer.add_string b
    (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.Histogram.total);
  Buffer.add_string b
    (Printf.sprintf "%s_sum %s\n" name (Spec.float_to_string h.Histogram.sum));
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
          Buffer.add_string b (Printf.sprintf "%s %s\n" name (Spec.float_to_string g))
      | Snapshot.Hist h -> add_hist_lines b name h)
    (Snapshot.to_list snap);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* metric records *)

(* JSON has no literal for a non-finite number, so those travel as the
   strings "inf", "-inf" and "nan" *)
let float_json f =
  let text = Spec.float_to_string f in
  if Float.is_finite f then Json.Number text else Json.String text

let json_float = function
  | Json.Number lit -> float_of_string_opt lit
  | Json.String ("inf" | "-inf" | "nan" as s) -> Some (float_of_string s)
  | _ -> None

let record (name, v) =
  let fields =
    match v with
    | Snapshot.Counter n -> [ ("type", Json.String "counter"); ("value", Json.int n) ]
    | Snapshot.Gauge g -> [ ("type", Json.String "gauge"); ("value", float_json g) ]
    | Snapshot.Hist h ->
        let buckets =
          List.filter_map
            (fun i ->
              let c = h.Histogram.counts.(i) in
              if c = 0 then None
              else Some (Json.List [ float_json (Histogram.bucket_upper i); Json.int c ]))
            (List.init Histogram.nbuckets Fun.id)
        in
        [
          ("type", Json.String "histogram");
          ("count", Json.int h.Histogram.total);
          ("sum", float_json h.Histogram.sum);
          ("buckets", Json.List buckets);
        ]
  in
  Json.Obj (("metric", Json.String name) :: fields)

let records snap = List.map record (Snapshot.to_list snap)

let to_jsonl snap =
  String.concat "" (List.map (fun j -> Json.to_string j ^ "\n") (records snap))

let ( let* ) = Result.bind

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      Result.map (List.cons y) (map_result f rest)

let bucket_of_bound b =
  List.find_opt
    (fun i -> Histogram.bucket_upper i = b)
    (List.init Histogram.nbuckets Fun.id)

let of_record j =
  let get key conv = Option.bind (Json.member key j) conv in
  let* name =
    Option.to_result (get "metric" Json.to_string_opt) ~none:"metric record without a name"
  in
  let fail fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "metric %S: %s" name m)) fmt in
  let need key conv = match get key conv with Some v -> Ok v | None -> fail "bad %S" key in
  let* value =
    match need "type" Json.to_string_opt with
    | Error _ as e -> e
    | Ok "counter" -> Result.map (fun n -> Snapshot.Counter n) (need "value" Json.to_int_opt)
    | Ok "gauge" -> Result.map (fun g -> Snapshot.Gauge g) (need "value" json_float)
    | Ok "histogram" ->
        (* a bucket is [upper_bound, count]: the bound names the bucket
           exactly, the count is positive *)
        let counts = Array.make Histogram.nbuckets 0 in
        let bucket b =
          let bound, c =
            match b with
            | Json.List [ bound; c ] -> (json_float bound, Json.to_int_opt c)
            | _ -> (None, None)
          in
          match (Option.bind bound bucket_of_bound, c) with
          | Some i, Some c when c > 0 -> Ok (counts.(i) <- counts.(i) + c)
          | _ -> fail "bad bucket %s" (Json.to_string b)
        in
        let* total = need "count" Json.to_int_opt in
        let* sum = need "sum" json_float in
        let* _ = Result.bind (need "buckets" Json.to_list_opt) (map_result bucket) in
        let held = Array.fold_left ( + ) 0 counts in
        if held <> total then fail "count %d but its buckets hold %d" total held
        else Ok (Snapshot.Hist { Histogram.counts; sum; total })
    | Ok kind -> fail "unknown type %S" kind
  in
  Ok (name, value)

let of_records js =
  let* entries = map_result of_record js in
  match Snapshot.of_list entries with
  | snap -> Ok snap
  | exception Invalid_argument m -> Error m
