let read path =
  match open_in_bin path with
  | exception Sys_error m -> Error m  (* already "path: reason" *)
  | ic -> (
      match
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> In_channel.input_all ic)
      with
      | s -> Ok s
      | exception Sys_error m -> Error (Printf.sprintf "%s: %s" path m))

(* tmp + rename: a crash leaves either the old content or the new,
   never a prefix *)
let write path content =
  let tmp = path ^ ".tmp" in
  let fail m =
    (try Sys.remove tmp with Sys_error _ -> ());
    Error m
  in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
    Unix.rename tmp path
  with
  | () -> Ok ()
  | exception Sys_error m -> fail m  (* already "path.tmp: reason" *)
  | exception Unix.Unix_error (e, _, _) ->
      fail (Printf.sprintf "%s: %s" path (Unix.error_message e))
