type kind = Drop | Duplicate | Delay | Reorder | Truncate

type t = (kind * float) list

let spec =
  Spec.plan "fault"
    [
      ("drop", Drop);
      ("dup", Duplicate);
      ("delay", Delay);
      ("reorder", Reorder);
      ("truncate", Truncate);
    ]
    Spec.prob

let of_string = spec.Spec.parse

let of_string_exn s =
  match of_string s with Ok t -> t | Error m -> invalid_arg m

let to_string = spec.Spec.print

type action = Deliver | Lose | Send_twice | Sleep of float | Corrupt

let next_action rng plan =
  let rec roll = function
    | [] -> Deliver
    | (k, p) :: rest ->
        if Rng.chance rng p then
          match k with
          | Drop -> Lose
          | Duplicate -> Send_twice
          | Delay | Reorder -> Sleep (Rng.float rng 0.05)
          | Truncate -> Corrupt
        else roll rest
  in
  roll plan

(* The pure channel model.  A queue of (item, retried) pairs: fresh
   items roll the plan, anything the channel bounced is re-queued
   flagged [retried] and delivers unconditionally on its second pass —
   the termination argument for plans with probability 1.0 faults. *)
let deliveries rng plan items =
  let rec go out = function
    | [] -> List.rev out
    | (item, true) :: rest -> go (item :: out) rest
    | (item, false) :: rest -> (
        match next_action rng plan with
        | Deliver -> go (item :: out) rest
        | Send_twice -> go (item :: item :: out) rest
        | Lose | Corrupt ->
            (* the attempt never applies; redelivery lands at the back *)
            go out (rest @ [ (item, true) ])
        | Sleep _ -> (
            (* a delayed attempt lands after its successor *)
            match rest with
            | [] -> go (item :: out) rest
            | next :: rest' -> go out (next :: (item, true) :: rest')))
  in
  go [] (List.map (fun i -> (i, false)) items)
