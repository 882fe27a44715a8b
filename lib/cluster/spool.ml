type t = { dir : string; epoch : int }

let epoch t = t.epoch

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let epoch_file d = Filename.concat d "EPOCH"

let open_dir d =
  match mkdir_p d with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "spool %s: %s" d (Unix.error_message e))
  | () -> (
      let prev =
        match File.read (epoch_file d) with
        | Ok text -> (
            match int_of_string_opt (String.trim text) with
            | Some n when n >= 0 -> n
            | Some _ | None -> 0)
        | Error _ -> 0
      in
      let epoch = prev + 1 in
      match File.write (epoch_file d) (Printf.sprintf "%d\n" epoch) with
      | Ok () -> Ok { dir = d; epoch }
      | Error m -> Error (Printf.sprintf "spool %s: %s" d m))

let entry_name ~epoch ~seq = Printf.sprintf "delta-%08d-%08d.delta" epoch seq

let parse_entry name =
  match Scanf.sscanf_opt name "delta-%8d-%8d.delta%!" (fun e s -> (e, s)) with
  | Some (e, s) when e > 0 && s > 0 -> Some (e, s)
  | Some _ | None -> None

let journal t ~seq payload =
  File.write (Filename.concat t.dir (entry_name ~epoch:t.epoch ~seq)) payload
  |> Result.map_error (Printf.sprintf "spool %s: %s" t.dir)

let ack t ~epoch ~seq =
  try Sys.remove (Filename.concat t.dir (entry_name ~epoch ~seq))
  with Sys_error _ -> ()

let pending t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [| |] in
  Array.to_list names
  |> List.filter_map (fun name ->
         match parse_entry name with
         | None -> None
         | Some (epoch, seq) -> (
             match File.read (Filename.concat t.dir name) with
             | Ok payload -> Some (epoch, seq, payload)
             | Error _ -> None))
  |> List.sort (fun (e1, s1, _) (e2, s2, _) -> compare (e1, s1) (e2, s2))
