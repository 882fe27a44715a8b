type policy = Drop_newest | Drop_oldest | Block

let policy_to_string = function
  | Drop_newest -> "drop_newest"
  | Drop_oldest -> "drop_oldest"
  | Block -> "block"

let policy_of_string = function
  | "drop_newest" | "newest" -> Some Drop_newest
  | "drop_oldest" | "oldest" -> Some Drop_oldest
  | "block" -> Some Block
  | _ -> None

let policy_of_string_result s =
  match policy_of_string s with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf
           "drop policy: unknown %S (want block|drop_newest|drop_oldest)" s)

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  policy : policy;
  mutex : Mutex.t;
  not_empty : Condition.t;  (* signalled on enqueue and on close *)
  not_full : Condition.t;  (* signalled on dequeue and on close *)
  mutable closed : bool;
}

type push_result = Queued | Shed_newest | Shed_oldest of int

let create ~capacity policy =
  if capacity < 1 then invalid_arg "Bqueue.create: capacity must be >= 1";
  {
    q = Queue.create ();
    capacity;
    policy;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
  }

let push t x =
  Mutex.lock t.mutex;
  let result =
    if t.closed then Shed_newest
    else begin
      (match t.policy with
      | Block ->
          while Queue.length t.q >= t.capacity && not t.closed do
            Condition.wait t.not_full t.mutex
          done
      | Drop_newest | Drop_oldest -> ());
      if t.closed then Shed_newest
      else if Queue.length t.q < t.capacity then begin
        Queue.push x t.q;
        Queued
      end
      else
        match t.policy with
        | Drop_newest -> Shed_newest
        | Block (* unreachable: the wait loop guarantees space or closed *)
        | Drop_oldest ->
            let evicted = ref 0 in
            while Queue.length t.q >= t.capacity do
              ignore (Queue.pop t.q);
              incr evicted
            done;
            Queue.push x t.q;
            Shed_oldest !evicted
    end
  in
  (match result with Queued | Shed_oldest _ -> Condition.signal t.not_empty | Shed_newest -> ());
  Mutex.unlock t.mutex;
  result

type batch_result = { queued : int; shed : int }

let push_batch t xs =
  Mutex.lock t.mutex;
  let queued = ref 0 and shed = ref 0 in
  List.iter
    (fun x ->
      if t.closed then incr shed
      else begin
        (match t.policy with
        | Block ->
            while Queue.length t.q >= t.capacity && not t.closed do
              (* items enqueued earlier in this batch are not yet
                 signalled: wake the consumer before sleeping, or a full
                 queue deadlocks against a waiting worker *)
              Condition.broadcast t.not_empty;
              Condition.wait t.not_full t.mutex
            done
        | Drop_newest | Drop_oldest -> ());
        if t.closed then incr shed
        else if Queue.length t.q < t.capacity then begin
          Queue.push x t.q;
          incr queued
        end
        else
          match t.policy with
          | Drop_newest -> incr shed
          | Block (* unreachable: the wait loop guarantees space or closed *)
          | Drop_oldest ->
              while Queue.length t.q >= t.capacity do
                ignore (Queue.pop t.q);
                incr shed
              done;
              Queue.push x t.q;
              incr queued
      end)
    xs;
  if !queued > 0 then Condition.broadcast t.not_empty;
  Mutex.unlock t.mutex;
  { queued = !queued; shed = !shed }

let pop_batch t ~max =
  if max < 1 then invalid_arg "Bqueue.pop_batch: max must be >= 1";
  Mutex.lock t.mutex;
  while Queue.is_empty t.q && not t.closed do
    Condition.wait t.not_empty t.mutex
  done;
  let rec take n acc =
    if n = 0 || Queue.is_empty t.q then List.rev acc
    else take (n - 1) (Queue.pop t.q :: acc)
  in
  let items = take max [] in
  if items <> [] then Condition.broadcast t.not_full;
  Mutex.unlock t.mutex;
  items

let close t =
  Mutex.lock t.mutex;
  t.closed <- true;
  Condition.broadcast t.not_empty;
  Condition.broadcast t.not_full;
  Mutex.unlock t.mutex
