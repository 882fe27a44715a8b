(* Pure dedup/merge state: Map of sensor -> (Map of epoch -> applied
   seq set, merged per-sensor snapshot).  Commutativity of
   Snapshot.merge does the heavy lifting; this layer only has to make
   application idempotent. *)

module Obs = Sanids_obs
module SM = Map.Make (String)
module IM = Map.Make (Int)
module IS = Set.Make (Int)

type sensor_state = {
  epochs : IS.t IM.t;  (* epoch -> applied seqs *)
  merged : Obs.Snapshot.t;
  applied : int;
  duplicates : int;
  last_epoch : int;
  last_seq : int;
}

type t = sensor_state SM.t

let empty = SM.empty

type outcome = Fresh | Duplicate

let fresh_sensor =
  {
    epochs = IM.empty;
    merged = Obs.Snapshot.empty;
    applied = 0;
    duplicates = 0;
    last_epoch = 0;
    last_seq = 0;
  }

let apply t (d : Delta.t) =
  let s = Option.value (SM.find_opt d.Delta.sensor t) ~default:fresh_sensor in
  let seen = Option.value (IM.find_opt d.Delta.epoch s.epochs) ~default:IS.empty in
  if IS.mem d.Delta.seq seen then
    (SM.add d.Delta.sensor { s with duplicates = s.duplicates + 1 } t, Duplicate)
  else
    let s =
      {
        epochs = IM.add d.Delta.epoch (IS.add d.Delta.seq seen) s.epochs;
        merged = Obs.Snapshot.merge s.merged d.Delta.snapshot;
        applied = s.applied + 1;
        duplicates = s.duplicates;
        last_epoch = max s.last_epoch d.Delta.epoch;
        last_seq =
          (if d.Delta.epoch >= s.last_epoch then
             if d.Delta.epoch > s.last_epoch then d.Delta.seq
             else max s.last_seq d.Delta.seq
           else s.last_seq);
      }
    in
    (SM.add d.Delta.sensor s t, Fresh)

let view t =
  SM.fold (fun _ s acc -> Obs.Snapshot.merge acc s.merged) t Obs.Snapshot.empty

let sensors t = List.map fst (SM.bindings t)

type stats = {
  epochs : int;
  applied : int;
  duplicates : int;
  last_epoch : int;
  last_seq : int;
}

let stats t id =
  match SM.find_opt id t with
  | None -> None
  | Some (s : sensor_state) ->
      Some
        {
          epochs = IM.cardinal s.epochs;
          applied = s.applied;
          duplicates = s.duplicates;
          last_epoch = s.last_epoch;
          last_seq = s.last_seq;
        }
