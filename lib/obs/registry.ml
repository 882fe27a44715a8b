type counter = { mutable c : int }
type gauge = { mutable g : float }

type metric =
  | Mcounter of counter
  | Mgauge of gauge
  | Mhist of Histogram.t

type t = (string, metric * string) Hashtbl.t  (* series name -> metric, help *)

let create () : t = Hashtbl.create 32

let valid_name name =
  name <> ""
  && (match name.[0] with
     | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       name

(* Label keys follow the Prometheus label grammar (no colons). *)
let valid_label_key k =
  k <> ""
  && (match k.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       k

let escape_label_value v =
  let b = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* The full series name: [base{k="v",...}] with labels sorted by key, so
   equal label sets always yield the same series regardless of caller
   order.  Snapshot merge and export key on this rendered name. *)
let series_name base labels =
  match labels with
  | [] -> base
  | _ ->
      List.iter
        (fun (k, _) ->
          if not (valid_label_key k) then
            invalid_arg (Printf.sprintf "Registry: invalid label key %S" k))
        labels;
      let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
      Printf.sprintf "%s{%s}" base
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
              labels))

(* The series [name{labels}], registered with [make ()] on first use.
   A hit is one hash lookup and no validation: the name and label keys
   were checked when the series was registered.  A bare name must not
   hit a labeled series, whose key ends in '}' as no valid name does,
   so such a name falls through to validation and raises. *)
let lookup t ~help ~labels name make =
  let key = series_name name labels in
  match Hashtbl.find_opt t key with
  | Some (m, _) when labels <> [] || not (String.ends_with ~suffix:"}" key) -> m
  | Some _ | None ->
      if not (valid_name name) then
        invalid_arg (Printf.sprintf "Registry: invalid metric name %S" name);
      let m = make () in
      Hashtbl.replace t key (m, help);
      m

let kind_error name labels want =
  invalid_arg
    (Printf.sprintf "Registry: metric %S already registered with another kind (wanted %s)"
       (series_name name labels) want)

let counter t ?(help = "") ?(labels = []) name =
  match lookup t ~help ~labels name (fun () -> Mcounter { c = 0 }) with
  | Mcounter c -> c
  | Mgauge _ | Mhist _ -> kind_error name labels "counter"

let gauge t ?(help = "") ?(labels = []) name =
  match lookup t ~help ~labels name (fun () -> Mgauge { g = 0.0 }) with
  | Mgauge g -> g
  | Mcounter _ | Mhist _ -> kind_error name labels "gauge"

let histogram t ?(help = "") name =
  match lookup t ~help ~labels:[] name (fun () -> Mhist (Histogram.create ())) with
  | Mhist h -> h
  | Mcounter _ | Mgauge _ -> kind_error name [] "histogram"

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let set_gauge g v = g.g <- v
let add_gauge g v = g.g <- g.g +. v
let gauge_value g = g.g

let help t name =
  match Hashtbl.find_opt t name with
  | Some (_, "") | None -> None
  | Some (_, h) -> Some h

let snapshot t =
  Snapshot.of_list
    (Hashtbl.fold
       (fun name (m, _) acc ->
         let v =
           match m with
           | Mcounter c -> Snapshot.Counter c.c
           | Mgauge g -> Snapshot.Gauge g.g
           | Mhist h -> Snapshot.Hist (Histogram.snap h)
         in
         (name, v) :: acc)
       t [])

let reset t =
  Hashtbl.iter
    (fun _ (m, _) ->
      match m with
      | Mcounter c -> c.c <- 0
      | Mgauge g -> g.g <- 0.0
      | Mhist h -> Histogram.reset h)
    t
