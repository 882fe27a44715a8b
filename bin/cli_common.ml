(* Shared plumbing for the per-subcommand modules: BSD sysexits codes,
   small file helpers, and cmdliner argument combinators.

   Every spec-valued flag goes through [spec_conv] over a {!Spec}
   codec, and every configuration flag through the grammar the daemon's
   hot-reload path uses ({!Config.of_spec} / {!Config.of_file}), so a
   bad flag and a rejected reload produce the same message. *)

open Sanids
open Cmdliner

(* BSD sysexits-style codes, cram-tested: bad flags or configuration
   are the caller's fault (64), data a decoder or gate rejects is bad
   input (65), a missing input file is 66, an unreachable daemon is
   69, anything unexpected is ours (70), an output file that cannot be
   written is 73. *)
let exit_usage = 64
let exit_dataerr = 65
let exit_noinput = 66
let exit_unavailable = 69
let exit_cantcreat = 73
let exit_software = 70

(* Evaluate a command to its exit code: cmdliner reports command-line
   parse errors as its own cli_error (124), folded here into the usage
   code, and an escaping exception is ours. *)
let eval ?err ?argv cmd =
  let code =
    try Cmd.eval ?err ?argv ~catch:false ~term_err:exit_usage cmd with
    | e ->
        Printf.eprintf "sanids: %s\n" (Printexc.to_string e);
        exit_software
  in
  if code = Cmd.Exit.cli_error then exit_usage else code

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  Arg.(value & flag
       & info [ "v"; "verbose" ]
           ~doc:"Log classification and alerts as they happen.")

let read_file path =
  match File.read path with
  | Ok s -> s
  | Error m ->
      Printf.eprintf "sanids: %s\n" m;
      exit exit_noinput

let write_file path data =
  match File.write path data with
  | Ok () -> ()
  | Error m ->
      Printf.eprintf "sanids: %s\n" m;
      exit exit_cantcreat

(* ------------------------------------------------------------------ *)
(* argument combinators *)

(* Lift a {!Spec} codec into a cmdliner converter — the one bridge
   between the library's spec grammar and the command line. *)
let spec_conv (c : _ Spec.t) =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (c.Spec.parse s)),
      fun ppf v -> Format.pp_print_string ppf (c.Spec.print v) )

(* A [key=value] assignment through the daemon's reload grammar
   ({!Config.of_spec}), yielding a configuration updater; [prefix] is
   prepended to the argument, so [assignment_conv "queue="] reads
   [--queue 3] as [--set queue=3] reads [queue=3]. *)
let assignment_conv prefix =
  let parse s = Result.map (fun update -> (s, update)) (Config.of_spec (prefix ^ s)) in
  spec_conv { Spec.parse; print = fst }

let seed_arg =
  Arg.(value & opt int 1
       & info [ "seed" ] ~docv:"N" ~doc:"Deterministic RNG seed.")

let file_pos = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

(* ------------------------------------------------------------------ *)
(* the shared configuration flag set

   [scan], [lint --config], [serve] and [sensor] assemble a {!Config.t}
   from one flag per {!Config.flags} entry, folded from the key table:
   the key with '-' for '_', read as [--set key=value] reads it, and for
   a boolean key [--no-KEY] or [--KEY], whichever flips its default.
   The term evaluates to an updater applied to [Config.default] (or
   whatever base the subcommand chooses): only the flags given apply,
   in table order, then the [--set] specs in command-line order. *)

let config_term =
  let key_flag { Config.key; doc; arg } =
    let long = String.map (function '_' -> '-' | c -> c) key in
    match arg with
    | `Switch v ->
        let update = Result.get_ok (Config.of_spec (Printf.sprintf "%s=%b" key v)) in
        let given = Arg.(value & flag & info [ (if v then long else "no-" ^ long) ] ~doc) in
        Term.(const (fun on -> if on then [ update ] else []) $ given)
    | `Value docv ->
        let given =
          Arg.(value & opt_all (assignment_conv (key ^ "=")) [] & info [ long ] ~docv ~doc)
        in
        Term.(const (List.map snd) $ given)
  in
  let flags =
    List.fold_left
      (fun acc f -> Term.(const ( @ ) $ acc $ key_flag f))
      (Term.const []) Config.flags
  in
  let sets =
    Arg.(value & opt_all (assignment_conv "") []
         & info [ "set" ] ~docv:"KEY=VALUE"
             ~doc:("Set a configuration key through the key=value grammar \
                    shared with $(b,--config-file) and the daemon's hot \
                    reload (repeatable, applied after the other \
                    configuration flags; keys: "
                   ^ String.concat ", " Config.spec_keys
                   ^ ")."))
  in
  let build updates sets cfg =
    List.fold_left (fun cfg update -> update cfg) cfg (updates @ List.map snd sets)
  in
  Term.(const build $ flags $ sets)
