type t =
  | Null
  | Bool of bool
  | Number of string
  | String of string
  | List of t list
  | Obj of (string * t) list

let int n = Number (string_of_int n)

(* ------------------------------------------------------------------ *)
(* writer *)

let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec add_value b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Number lit -> Buffer.add_string b lit
  | String s -> add_escaped b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_value b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b k;
          Buffer.add_char b ':';
          add_value b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add_value b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* reader: recursive descent *)

exception Error of string

type state = { src : string; mutable pos : int; mutable line : int }

let fail st msg = raise (Error (Printf.sprintf "line %d: %s" st.line msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st =
  (if st.pos < String.length st.src && st.src.[st.pos] = '\n' then
     st.line <- st.line + 1);
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> fail st (Printf.sprintf "expected '%c', found '%c'" c c')
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' ->
        advance st;
        Buffer.contents buf
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> fail st "unterminated escape"
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if st.pos + 4 > String.length st.src then
                  fail st "truncated \\u escape";
                let hex = String.sub st.src st.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail st "bad \\u escape"
                in
                st.pos <- st.pos + 4;
                if code > 0xFF then fail st "\\u escape above 0xFF unsupported"
                else Buffer.add_char buf (Char.chr code)
            | c -> fail st (Printf.sprintf "bad escape '\\%c'" c));
            loop ())
    | Some c when Char.code c < 0x20 ->
        fail st (Printf.sprintf "raw control byte 0x%02x in string" (Char.code c))
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        loop ()
  in
  loop ()

(* -?(0x hex+ | digits (.digits)? ([eE][+-]?digits)?), kept as text *)
let parse_number st =
  let start = st.pos in
  (* consume a run of [ok] bytes; false when the run is empty *)
  let run ok =
    let from = st.pos in
    while match peek st with Some c -> ok c | None -> false do
      advance st
    done;
    st.pos > from
  in
  let digit = function '0' .. '9' -> true | _ -> false in
  let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let accept c = if peek st = Some c then (advance st; true) else false in
  ignore (accept '-');
  let ok =
    if
      st.pos + 1 < String.length st.src
      && st.src.[st.pos] = '0'
      && (st.src.[st.pos + 1] = 'x' || st.src.[st.pos + 1] = 'X')
    then begin
      st.pos <- st.pos + 2;
      run hex
    end
    else
      run digit
      && ((not (accept '.')) || run digit)
      && ((not (accept 'e' || accept 'E'))
         || (ignore (accept '+' || accept '-');
             run digit))
  in
  let lit = String.sub st.src start (st.pos - start) in
  if ok then Number lit else fail st (Printf.sprintf "bad number %S" lit)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  if peek st = Some '}' then begin
    advance st;
    Obj []
  end
  else
    let rec fields acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          fields ((key, v) :: acc)
      | Some '}' ->
          advance st;
          Obj (List.rev ((key, v) :: acc))
      | _ -> fail st "expected ',' or '}' in object"
    in
    fields []

and parse_list st =
  expect st '[';
  skip_ws st;
  if peek st = Some ']' then begin
    advance st;
    List []
  end
  else
    let rec items acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
          advance st;
          items (v :: acc)
      | Some ']' ->
          advance st;
          List (List.rev (v :: acc))
      | _ -> fail st "expected ',' or ']' in array"
    in
    items []

let of_string s =
  let st = { src = s; pos = 0; line = 1 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Number lit -> int_of_string_opt lit | _ -> None
let to_float_opt = function Number lit -> float_of_string_opt lit | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
let to_list_opt = function List l -> Some l | _ -> None
let to_obj_opt = function Obj f -> Some f | _ -> None
