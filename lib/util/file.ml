let read path =
  match open_in_bin path with
  | exception Sys_error m -> Error m  (* already "path: reason" *)
  | ic -> (
      match
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)
      with
      | s -> Ok s
      | exception Sys_error m -> Error (Printf.sprintf "%s: %s" path m))
