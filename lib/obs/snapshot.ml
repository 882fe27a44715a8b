module M = Map.Make (String)

type value =
  | Counter of int
  | Gauge of float
  | Hist of Histogram.snap

type t = value M.t

let empty = M.empty

let merge_value name a b =
  match (a, b) with
  | Counter x, Counter y -> Counter (x + y)
  | Gauge x, Gauge y -> Gauge (x +. y)
  | Hist x, Hist y -> Hist (Histogram.merge x y)
  | (Counter _ | Gauge _ | Hist _), _ ->
      invalid_arg
        (Printf.sprintf "Snapshot.merge: metric %S has conflicting kinds" name)

let merge a b =
  M.union (fun name x y -> Some (merge_value name x y)) a b

(* Interval delta between two cumulative snapshots.  Counters and
   histogram buckets subtract clamped at zero — a worker restart or a
   generation swap can only make a cumulative series *appear* to go
   backwards, and a rate must never be negative — while gauges are
   levels, not accumulations, so the newer level is kept as-is. *)
let diff_value name n o =
  match (n, o) with
  | Counter x, Counter y -> Counter (max 0 (x - y))
  | Gauge x, Gauge _ -> Gauge x
  | Hist x, Hist y ->
      let counts =
        Array.init (Array.length x.Histogram.counts) (fun i ->
            max 0 (x.Histogram.counts.(i) - y.Histogram.counts.(i)))
      in
      Hist
        {
          Histogram.counts;
          sum = Float.max 0.0 (x.Histogram.sum -. y.Histogram.sum);
          total = Array.fold_left ( + ) 0 counts;
        }
  | (Counter _ | Gauge _ | Hist _), _ ->
      invalid_arg
        (Printf.sprintf "Snapshot.diff: metric %S has conflicting kinds" name)

let diff ~newer ~older =
  M.merge
    (fun name n o ->
      match (n, o) with
      | Some n, Some o -> Some (diff_value name n o)
      | Some n, None -> Some n
      | None, Some _ | None, None ->
          (* a series the newer snapshot no longer carries contributes
             nothing to the interval *)
          None)
    newer older

let of_list l =
  List.fold_left
    (fun m (name, v) ->
      M.update name
        (function None -> Some v | Some v0 -> Some (merge_value name v0 v))
        m)
    empty l

let to_list t = M.bindings t

let counter_value t name =
  match M.find_opt name t with Some (Counter n) -> n | _ -> 0

let gauge_value t name =
  match M.find_opt name t with Some (Gauge g) -> g | _ -> 0.0

let histogram t name =
  match M.find_opt name t with Some (Hist h) -> h | _ -> Histogram.empty_snap

let base_name name =
  match String.index_opt name '{' with
  | None -> name
  | Some i -> String.sub name 0 i

let counter_sum t base =
  M.fold
    (fun name v acc ->
      match v with
      | Counter n when base_name name = base -> acc + n
      | Counter _ | Gauge _ | Hist _ -> acc)
    t 0

let equal a b = to_list a = to_list b
