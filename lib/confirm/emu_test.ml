module Emulator = Sanids_x86.Emulator
module Reg = Sanids_x86.Reg

(* CF | PF | ZF | SF | DF | OF — everything the machine models except
   the constant reserved bit. *)
let default_flags_mask = 0xCC5

type case = {
  c_file : string;
  c_name : string;
  c_steps : int;
  c_flags_mask : int;
  c_init_eip : int;
  c_init_regs : (Reg.t * int32) list;
  c_init_flags : int option;
  c_init_mem : (int * int) list;
  c_fin_eip : int option;
  c_fin_regs : (Reg.t * int32) list;
  c_fin_flags : int option;
  c_fin_mem : (int * int) list;
}

type failure = { f_file : string; f_case : string; f_details : string list }
type report = { files : int; cases : int; failures : failure list }

let passed r = r.cases - List.length r.failures

(* ------------------------------------------------------------------ *)
(* vector parsing *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let reg_of_name = function
  | "eax" -> Reg.EAX
  | "ecx" -> Reg.ECX
  | "edx" -> Reg.EDX
  | "ebx" -> Reg.EBX
  | "esp" -> Reg.ESP
  | "ebp" -> Reg.EBP
  | "esi" -> Reg.ESI
  | "edi" -> Reg.EDI
  | s -> bad "unknown register %S" s

let int_field j key =
  match Json.member key j with
  | None -> None
  | Some v -> (
      match Json.to_int_opt v with
      | Some i -> Some i
      | None -> bad "field %S is not an integer" key)

let regs_field j key =
  match Json.member key j with
  | None -> []
  | Some v -> (
      match Json.to_obj_opt v with
      | None -> bad "field %S is not an object" key
      | Some fields ->
          List.map
            (fun (name, v) ->
              match Json.to_int_opt v with
              | None -> bad "register %S is not an integer" name
              | Some i -> (reg_of_name name, Int32.of_int i))
            fields)

let mem_field j key =
  match Json.member key j with
  | None -> []
  | Some v -> (
      match Json.to_list_opt v with
      | None -> bad "field %S is not an array" key
      | Some entries ->
          List.map
            (fun e ->
              match Option.map (List.map Json.to_int_opt) (Json.to_list_opt e) with
              | Some [ Some off; Some byte ] ->
                  if byte < 0 || byte > 0xFF then
                    bad "mem byte %d out of range" byte
                  else (off, byte)
              | _ -> bad "mem entries must be [offset, byte] pairs")
            entries)

let parse_case file j =
  match Json.to_obj_opt j with
  | None -> bad "case is not an object"
  | Some _ ->
      let name =
        match Json.member "name" j with
        | Some (Json.String s) -> s
        | _ -> bad "case has no \"name\""
      in
      let initial =
        match Json.member "initial" j with
        | Some o -> o
        | None -> bad "case %S has no \"initial\"" name
      in
      let final =
        match Json.member "final" j with
        | Some o -> o
        | None -> bad "case %S has no \"final\"" name
      in
      {
        c_file = file;
        c_name = name;
        c_steps = Option.value (int_field j "steps") ~default:1;
        c_flags_mask =
          Option.value (int_field j "flags_mask") ~default:default_flags_mask;
        c_init_eip = Option.value (int_field initial "eip") ~default:0;
        c_init_regs = regs_field initial "regs";
        c_init_flags = int_field initial "flags";
        c_init_mem = mem_field initial "mem";
        c_fin_eip = int_field final "eip";
        c_fin_regs = regs_field final "regs";
        c_fin_flags = int_field final "flags";
        c_fin_mem = mem_field final "mem";
      }

let load_file path =
  match File.read path with
  | Error e -> Error e
  | Ok text -> (
      match Json.of_string text with
      | Error e -> Error (Printf.sprintf "%s: %s" path e)
      | Ok (Json.List cases) -> (
          match List.map (parse_case path) cases with
          | cases -> Ok cases
          | exception Bad msg -> Error (Printf.sprintf "%s: %s" path msg))
      | Ok _ -> Error (Printf.sprintf "%s: top level must be an array of cases" path))

(* ------------------------------------------------------------------ *)
(* execution *)

let arena_size = 1 lsl 14

let run_case c =
  let emu = Emulator.create ~arena_size ~code:"" () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let addr off = Int32.add Emulator.code_base (Int32.of_int off) in
  List.iter
    (fun (off, byte) ->
      match Emulator.write_mem_opt emu (addr off) (String.make 1 (Char.chr byte)) with
      | Some () -> ()
      | None -> problem "initial mem offset 0x%x outside the arena" off)
    c.c_init_mem;
  List.iter (fun (r, v) -> Emulator.set_reg emu r v) c.c_init_regs;
  (match c.c_init_flags with
  | Some f -> Emulator.set_flags_word emu f
  | None -> ());
  Emulator.set_eip emu (addr c.c_init_eip);
  let rec steps n =
    if n = 0 then ()
    else
      match Emulator.step emu with
      | Emulator.Running -> steps (n - 1)
      | Emulator.Syscall v ->
          problem "stopped on int 0x%x with %d steps left" v (n - 1)
      | Emulator.Halted msg -> problem "halted (%s) with %d steps left" msg (n - 1)
  in
  if !problems = [] then begin
    steps c.c_steps;
    List.iter
      (fun (r, want) ->
        let got = Emulator.reg emu r in
        if not (Int32.equal got want) then
          problem "%s = 0x%08lx, want 0x%08lx" (Reg.name r) got want)
      c.c_fin_regs;
    (match c.c_fin_eip with
    | Some off ->
        let got = Emulator.eip emu in
        if not (Int32.equal got (addr off)) then
          problem "eip = base+0x%lx, want base+0x%x"
            (Int32.sub got Emulator.code_base)
            off
    | None -> ());
    (match c.c_fin_flags with
    | Some want ->
        let got = Emulator.flags_word emu in
        if got land c.c_flags_mask <> want land c.c_flags_mask then
          problem "flags = 0x%03x, want 0x%03x (mask 0x%03x)" got want
            c.c_flags_mask
    | None -> ());
    List.iter
      (fun (off, want) ->
        match Emulator.read_mem_opt emu (addr off) 1 with
        | None -> problem "final mem offset 0x%x outside the arena" off
        | Some s ->
            let got = Char.code s.[0] in
            if got <> want then
              problem "mem[0x%x] = 0x%02x, want 0x%02x" off got want)
      c.c_fin_mem
  end;
  List.rev !problems

(* ------------------------------------------------------------------ *)
(* corpus driver *)

let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pat.[i] with
      | '*' ->
          let rec try_from k = k <= ns && (go (i + 1) k || try_from (k + 1)) in
          try_from j
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let expand_paths paths =
  let rec expand acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
        if Sys.file_exists p then
          if Sys.is_directory p then
            let entries =
              Sys.readdir p |> Array.to_list
              |> List.filter (fun f -> Filename.check_suffix f ".json")
              |> List.sort String.compare
              |> List.map (Filename.concat p)
            in
            if entries = [] then
              Error (Printf.sprintf "%s: no .json vector files" p)
            else expand (List.rev_append entries acc) rest
          else expand (p :: acc) rest
        else Error (Printf.sprintf "%s: no such file or directory" p)
  in
  expand [] paths

let run_cases cases =
  List.filter_map
    (fun c ->
      match run_case c with
      | [] -> None
      | details -> Some { f_file = c.c_file; f_case = c.c_name; f_details = details })
    cases

let run ?filter ?(jobs = 1) paths =
  match expand_paths paths with
  | Error e -> Error e
  | Ok files -> (
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | f :: rest -> (
            match load_file f with
            | Error e -> Error e
            | Ok cases -> load (List.rev_append cases acc) rest)
      in
      match load [] files with
      | Error e -> Error e
      | Ok all ->
          let selected =
            match filter with
            | None -> all
            | Some pat -> List.filter (fun c -> glob_match pat c.c_name) all
          in
          let failures =
            if jobs <= 1 || List.length selected < 2 then run_cases selected
            else begin
              let jobs = min jobs (List.length selected) in
              let chunks = Array.make jobs [] in
              List.iteri
                (fun i c -> chunks.(i mod jobs) <- c :: chunks.(i mod jobs))
                selected;
              let domains =
                Array.map
                  (fun chunk -> Domain.spawn (fun () -> run_cases (List.rev chunk)))
                  chunks
              in
              Array.to_list domains |> List.concat_map Domain.join
            end
          in
          Ok { files = List.length files; cases = List.length selected; failures })
