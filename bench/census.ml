(* Export census: `census.exe [ROOT]` (default `..`), run by
   `dune build @census`.

   Lists every `val` exported by a `lib/**/*.mli` that nothing outside
   its own module calls.  A caller is a qualified use `M.name` (M the
   module, its enclosing submodule, or any `module A = ...M` alias) or
   a bare `name` in a file that opens M, found in `lib/`, `bin/`,
   `test/`, `bench/`, `examples/` or `perfbench/` with comments, strings
   and character literals blanked.  The match is by name only: a hit is
   a candidate for deletion, not a proof, and a name shared by two
   modules can hide a dead export.  Informational, never a gate. *)

let dirs = [ "lib"; "bin"; "test"; "bench"; "examples"; "perfbench" ]
let is_ident c = match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true | _ -> false
let is_start c = match c with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false
let is_upper s = s <> "" && match s.[0] with 'A' .. 'Z' -> true | _ -> false

let last l = List.nth l (List.length l - 1)
let read root path = In_channel.with_open_bin (Filename.concat root path) In_channel.input_all

(* Every .ml/.mli under [root/dir], as paths relative to [root]. *)
let rec files root dir =
  Sys.readdir (Filename.concat root dir) |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory (Filename.concat root p) then
           if f = "_build" || f.[0] = '.' then [] else files root p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli" then [ p ]
         else [])

(* The source with comments (nested, with their own string literals),
   strings, quoted strings and character literals blanked to spaces;
   newlines stay so that line structure survives. *)
let strip src =
  let n = String.length src in
  let b = Bytes.of_string src in
  let blank i j = for k = i to min (n - 1) j do if src.[k] <> '\n' then Bytes.set b k ' ' done in
  let rec string_end i =
    if i >= n then n
    else match src.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  let quoted_end i =
    (* [i] is at '{'; [Some j] when a {id|...|id} literal ends before j *)
    let k = ref (i + 1) in
    while !k < n && (match src.[!k] with 'a' .. 'z' | '_' -> true | _ -> false) do incr k done;
    if !k < n && src.[!k] = '|' then
      let close = "|" ^ String.sub src (i + 1) (!k - i - 1) ^ "}" in
      let rec find j =
        if j + String.length close > n then Some n
        else if String.sub src j (String.length close) = close then Some (j + String.length close)
        else find (j + 1)
      in
      find (!k + 1)
    else None
  in
  let rec comment depth i =
    if i >= n then n
    else if depth = 0 then i
    else if i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' then comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then comment (depth - 1) (i + 2)
    else if src.[i] = '"' then comment depth (string_end (i + 1))
    else comment depth (i + 1)
  in
  let rec code i =
    if i < n then
      match src.[i] with
      | '(' when i + 1 < n && src.[i + 1] = '*' ->
          let j = comment 1 (i + 2) in
          blank i (j - 1);
          code j
      | '"' ->
          let j = string_end (i + 1) in
          blank i (j - 1);
          code j
      | '{' -> (
          match quoted_end i with
          | Some j ->
              blank i (j - 1);
              code j
          | None -> code (i + 1))
      | '\'' when i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' ->
          blank i (i + 2);
          code (i + 3)
      | '\'' when i + 1 < n && src.[i + 1] = '\\' ->
          let j = try String.index_from src (i + 2) '\'' with Not_found -> n - 1 in
          blank i j;
          code (j + 1)
      | c when is_start c ->
          let j = ref i in
          while !j < n && is_ident src.[!j] do incr j done;
          code !j
      | _ -> code (i + 1)
  in
  code 0;
  Bytes.to_string b

type token = Path of string list | Local_open of string

(* Long identifiers (`A.B.c`) and local opens (`M.(`, `M.[`, `M.{`). *)
let tokens text =
  let n = String.length text in
  let out = ref [] in
  let i = ref 0 in
  while !i < n do
    if is_start text.[!i] && (!i = 0 || not (is_ident text.[!i - 1])) then begin
      let parts = ref [] in
      let continue = ref true in
      while !continue do
        let j = ref !i in
        while !j < n && is_ident text.[!j] do incr j done;
        parts := String.sub text !i (!j - !i) :: !parts;
        i := !j;
        if !i + 1 < n && text.[!i] = '.' && is_start text.[!i + 1] then incr i
        else begin
          continue := false;
          if !i + 1 < n && text.[!i] = '.' && String.contains "([{" text.[!i + 1] then
            out := Local_open (List.hd !parts) :: !out
        end
      done;
      out := Path (List.rev !parts) :: !out
    end
    else incr i
  done;
  List.rev !out

type file = {
  path : string;
  area : string;  (** first path component: lib, bin, test, ... *)
  qualified : (string * string, unit) Hashtbl.t;  (** (M, name) for each `...M.name` *)
  bare : (string, unit) Hashtbl.t;
  opens : string list;
  aliases : (string * string) list;  (** [module A = ...M] as (A, M) *)
}

let scan root path =
  let toks = tokens (strip (read root path)) in
  let qualified = Hashtbl.create 64 and bare = Hashtbl.create 256 in
  let rec go opens aliases = function
    | [] -> (opens, aliases)
    | Path [ ("open" | "include") ] :: Path p :: rest ->
        go (last p :: opens) aliases (Path p :: rest)
    | Path [ "module" ] :: Path [ a ] :: Path p :: rest when is_upper a && is_upper (last p) ->
        go opens ((a, last p) :: aliases) (Path p :: rest)
    | Local_open m :: rest -> go (m :: opens) aliases rest
    | Path p :: rest ->
        (match List.rev p with
        | name :: m :: _ when not (is_upper name) -> Hashtbl.replace qualified (m, name) ()
        | [ name ] -> Hashtbl.replace bare name ()
        | _ -> ());
        go opens aliases rest
  in
  let opens, aliases = go [] [] toks in
  let area = match String.index_opt path '/' with Some k -> String.sub path 0 k | None -> path in
  { path; area; qualified; bare; opens; aliases }

type export = { display : string; name : string; quals : string list; own : string list }

(* The `val`/`external` names of one interface, with the submodule
   that encloses each.  `module type` signatures declare requirements,
   not exports, and are skipped. *)
let exports root mli =
  let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename mli)) in
  let own = [ mli; Filename.remove_extension mli ^ ".ml" ] in
  let lines = String.split_on_char '\n' (strip (read root mli)) in
  let words l = String.split_on_char ' ' (String.trim l) |> List.filter (( <> ) "") in
  let _, acc =
    List.fold_left
      (fun (stack, acc) line ->
        match words line with
        | "module" :: "type" :: _ when List.mem "sig" (words line) -> (None :: stack, acc)
        | "module" :: sub :: ":" :: "sig" :: _ -> (Some sub :: stack, acc)
        | "end" :: _ when stack <> [] -> (List.tl stack, acc)
        | ("val" | "external") :: name :: _ when not (List.mem None stack) ->
            let name =
              if name = "(" then "(" ^ List.nth (words line) 2 ^ ")"
              else List.hd (String.split_on_char ':' name)
            in
            let subs = List.rev (List.filter_map Fun.id stack) in
            let quals = match stack with Some sub :: _ -> [ sub ] | _ -> [ m ] in
            let display = String.concat "." ((m :: subs) @ [ name ]) in
            (stack, { display; name; quals; own } :: acc)
        | _ -> (stack, acc))
      ([], []) lines
  in
  List.rev acc

let () =
  let root = if Array.length Sys.argv > 1 then Sys.argv.(1) else ".." in
  let all =
    List.concat_map
      (fun d -> if Sys.file_exists (Filename.concat root d) then files root d else [])
      dirs
  in
  let srcs = List.map (scan root) all in
  let aliases = List.concat_map (fun f -> f.aliases) srcs in
  let expand quals =
    quals @ List.filter_map (fun (a, m) -> if List.mem m quals then Some a else None) aliases
  in
  let exported =
    List.concat_map
      (fun p ->
        if Filename.check_suffix p ".mli" && String.starts_with ~prefix:"lib/" p then exports root p
        else [])
      all
  in
  let callers e =
    let quals = expand e.quals in
    List.filter_map
      (fun f ->
        if List.mem f.path e.own then None
        else if
          List.exists (fun q -> Hashtbl.mem f.qualified (q, e.name)) quals
          || (Hashtbl.mem f.bare e.name && List.exists (fun q -> List.mem q f.opens) quals)
        then Some f.area
        else None)
      srcs
    |> List.sort_uniq compare
  in
  let rows = List.map (fun e -> (e, callers e)) exported in
  let unused = List.filter (fun (_, c) -> not (List.mem "lib" c || List.mem "bin" c)) rows in
  let nowhere = List.filter (fun (_, c) -> c = []) unused in
  Printf.printf "census: %d exported vals in lib/**/*.mli\n" (List.length rows);
  Printf.printf "no caller in lib/ or bin/: %d\n" (List.length unused);
  Printf.printf "no caller anywhere: %d\n" (List.length nowhere);
  List.iter
    (fun (e, c) ->
      Printf.printf "  %-40s %s\n" e.display (if c = [] then "-" else String.concat " " c))
    unused
