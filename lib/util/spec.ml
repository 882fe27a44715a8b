type 'a t = { parse : string -> ('a, string) result; print : 'a -> string }

type 'a value = {
  read : name:string -> key:string -> string -> ('a, string) result;
  show : 'a -> string;
}

let value ~what of_string show =
  let read ~name ~key v =
    Option.to_result (of_string v)
      ~none:(Printf.sprintf "%s: %s wants %s, got %S" name key what v)
  in
  { read; show }

let codec c = { read = (fun ~name:_ ~key:_ v -> c.parse v); show = c.print }
let int_in what ok = value ~what (fun v -> Option.bind (int_of_string_opt v) ok) string_of_int
let int = int_in "an integer" Option.some
let pos_int = int_in "a positive integer" (fun n -> if n > 0 then Some n else None)

let float_to_string v =
  if Float.is_nan v then "nan"
  else
    let s = Printf.sprintf "%.15g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

let float_in what lo hi =
  let ok f = if lo <= f && f <= hi then Some f else None in
  value ~what (fun v -> Option.bind (float_of_string_opt v) ok) float_to_string

let float = float_in "a number" neg_infinity infinity
let seconds = float_in "seconds >= 0" 0.0 infinity
let prob = float_in "a probability in [0,1]" 0.0 1.0

let bool =
  value ~what:"a boolean (true/false)"
    (fun v ->
      match String.lowercase_ascii v with
      | "true" | "on" | "yes" | "1" -> Some true
      | "false" | "off" | "no" | "0" -> Some false
      | _ -> None)
    string_of_bool

type 'r field = {
  key : string;
  set : name:string -> string -> ('r -> 'r, string) result;
  get : ('r -> string) option;
}

let setter key v set =
  { key; set = (fun ~name s -> Result.map set (v.read ~name ~key s)); get = None }

let field key v get set = { (setter key v set) with get = Some (fun r -> v.show (get r)) }
let keys fields = List.map (fun f -> f.key) fields

let rec map_all f = function
  | [] -> Ok []
  | x :: rest -> Result.bind (f x) (fun y -> Result.map (List.cons y) (map_all f rest))

(* The tokeniser.  [noun] is what the left of '=' names. *)
let split_token name noun token =
  match String.index_opt token '=' with
  | None -> Error (Printf.sprintf "%s: %S is not %s=value" name token noun)
  | Some i ->
      Ok
        ( String.trim (String.sub token 0 i),
          String.trim (String.sub token (i + 1) (String.length token - i - 1)) )

let tokens name noun s =
  map_all
    (fun token ->
      match String.trim token with
      | "" -> Error (Printf.sprintf "%s: empty token in %S" name s)
      | token -> split_token name noun token)
    (String.split_on_char ',' s)

let unknown name noun k known =
  Error (Printf.sprintf "%s: unknown %s %S (want %s)" name noun k (String.concat "|" known))

let read_field name fields (k, v) =
  match List.find_opt (fun f -> f.key = k) fields with
  | Some f -> f.set ~name v
  | None -> unknown name "key" k (keys fields)

let record name ?unlimited ?(check = Result.ok) default fields =
  let parse s =
    match (String.trim s, unlimited) with
    | "", _ -> Error (name ^ ": empty spec")
    | "default", _ -> Ok default
    | "unlimited", Some u -> Ok u
    | s, _ -> (
        match Result.bind (tokens name "key" s) (map_all (read_field name fields)) with
        | Ok sets -> check (List.fold_left (fun r set -> set r) default sets)
        | Error m -> Error m)
  in
  let print r =
    String.concat ","
      (List.filter_map (fun f -> Option.map (fun get -> f.key ^ "=" ^ get r) f.get) fields)
  in
  { parse; print }

let plan name kinds v =
  let read (k, p) =
    match List.assoc_opt k kinds with
    | Some kind -> Result.map (fun p -> (kind, p)) (v.read ~name ~key:k p)
    | None -> unknown name "kind" k (List.map fst kinds)
  in
  let parse s =
    match String.trim s with
    | "" -> Ok []
    | s -> Result.bind (tokens name "kind" s) (map_all read)
  in
  let name_of kind = fst (List.find (fun (_, k) -> k = kind) kinds) in
  let print pairs =
    String.concat "," (List.map (fun (k, p) -> name_of k ^ "=" ^ v.show p) pairs)
  in
  { parse; print }

let assignment name fields s =
  match String.trim s with
  | "" -> Error (name ^ ": empty spec")
  | s -> Result.bind (split_token name "key" s) (read_field name fields)

let lines parse ls =
  let rec go n = function
    | [] -> Ok []
    | line :: rest -> (
        let line =
          match String.index_opt line '#' with Some i -> String.sub line 0 i | None -> line
        in
        if String.trim line = "" then go (n + 1) rest
        else
          match parse line with
          | Ok x -> Result.map (List.cons x) (go (n + 1) rest)
          | Error m -> Error (Printf.sprintf "line %d: %s" n m))
  in
  go 1 ls
