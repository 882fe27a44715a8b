(* The delta wire codec: one compact JSON object,

     {"delta":2,"sensor":"web-1","epoch":3,"seq":17,"metrics":[...]}

   whose metrics are Obs.Export's exact metric records. *)

module Obs = Sanids_obs

type t = {
  sensor : string;
  epoch : int;
  seq : int;
  snapshot : Obs.Snapshot.t;
}

let version = 2

let valid_sensor_id s =
  s <> ""
  && String.length s <= 64
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

let encode t =
  Json.to_string
    (Json.Obj
       [
         ("delta", Json.int version);
         ("sensor", Json.String t.sensor);
         ("epoch", Json.int t.epoch);
         ("seq", Json.int t.seq);
         ("metrics", Json.List (Obs.Export.records t.snapshot));
       ])

let ( let* ) = Result.bind

let decode text =
  let* j = Json.of_string text in
  let need key conv =
    Option.to_result (Option.bind (Json.member key j) conv) ~none:(Printf.sprintf "bad %S" key)
  in
  let natural v = Option.bind (Json.to_int_opt v) (fun n -> if n >= 0 then Some n else None) in
  let check ok fmt = Printf.ksprintf (fun m -> if ok then Ok () else Error m) fmt in
  let* v = need "delta" Json.to_int_opt in
  let* () = check (v = version) "delta version %d, want %d" v version in
  let* sensor = need "sensor" Json.to_string_opt in
  let* () = check (valid_sensor_id sensor) "invalid sensor id %S" sensor in
  let* epoch = need "epoch" natural in
  let* seq = need "seq" natural in
  let* snapshot = Result.bind (need "metrics" Json.to_list_opt) Obs.Export.of_records in
  Ok { sensor; epoch; seq; snapshot }
