(* Polymorphic shellcode hunting: generate mutated instances with both
   engine families, show why syntax matching fails, and walk one match in
   detail — disassembly, recovered execution order, bound variables.

   Run with: dune exec examples/polymorphic_hunt.exe *)

open Sanids

let payload = (Shellcodes.find "classic").Shellcodes.code

let () =
  let rng = Rng.create 31337L in

  (* 1. two instances of the same payload: not a byte in common *)
  let g1 = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
  let g2 = Admmutate.generate ~family:Admmutate.Xor_loop rng ~payload in
  Printf.printf "two ADMmutate instances of the same shellcode:\n";
  Printf.printf "  instance 1: %d bytes   instance 2: %d bytes   identical: %b\n"
    (String.length g1.Admmutate.code)
    (String.length g2.Admmutate.code)
    (g1.Admmutate.code = g2.Admmutate.code);

  (* 2. static signatures cannot keep up *)
  let hits engine codes =
    List.length (List.filter (fun c -> engine c) codes)
  in
  let corpus =
    List.init 50 (fun _ -> (Admmutate.generate rng ~payload).Admmutate.code)
  in
  Printf.printf "\nover 50 fresh instances:\n";
  Printf.printf "  static signatures hit : %d/50\n"
    (hits (fun c -> Rule.match_payload Rule.default c <> []) corpus);
  Printf.printf "  semantic templates hit: %d/50\n"
    (hits
       (fun c -> Matcher.scan ~templates:Template_lib.default_set c <> [])
       corpus);

  (* 3. anatomy of one match *)
  (match Matcher.scan ~templates:Template_lib.default_set g1.Admmutate.code with
  | [] -> print_endline "unexpected: no match"
  | r :: _ ->
      Printf.printf "\nanatomy of the first match:\n  %s\n"
        (Format.asprintf "%a" Matcher.pp_result r);
      Printf.printf "\nmatched instructions:\n";
      List.iter
        (fun off ->
          match Decode.at g1.Admmutate.code off with
          | Some d ->
              Printf.printf "  %04x: %s\n" off (Pretty.to_string d.Decode.insn)
          | None -> ())
        r.Matcher.offsets);
  (* 4. dynamic proof: execute the instance in the sandboxed interpreter —
     the decoder reconstructs the payload and runs it to execve *)
  let emu = Emulator.create ~code:g1.Admmutate.code () in
  let payload_addr =
    Int32.add Emulator.code_base (Int32.of_int g1.Admmutate.payload_off)
  in
  (match Emulator.run ~max_steps:200_000 ~stop_at:payload_addr emu with
  | Emulator.Running, steps ->
      let decoded =
        Emulator.read_mem_opt emu payload_addr g1.Admmutate.payload_len
      in
      Printf.printf
        "\nemulation: decoder ran %d steps and reconstructed the payload: %b\n"
        steps
        (decoded = Some payload);
      (match Emulator.run ~max_steps:10_000 emu with
      | Emulator.Syscall 0x80, _ ->
          Printf.printf "emulation: decoded payload reached int 0x80 with eax=%ld (execve)\n"
            (Emulator.reg emu Reg.EAX)
      | _ -> print_endline "emulation: payload did not reach its syscall")
  | _ -> print_endline "emulation: decoder did not reach the payload");

  (* 5. the decoder region, as the disassembler saw it *)
  let sled = g1.Admmutate.sled_len in
  let decoder =
    String.sub g1.Admmutate.code sled (min 48 (String.length g1.Admmutate.code - sled))
  in
  Printf.printf "\nfirst decoder bytes after the sled (linear sweep):\n";
  Array.iter
    (fun (d : Decode.decoded) ->
      Printf.printf "  %04x: %s\n" (sled + d.Decode.off) (Pretty.to_string d.Decode.insn))
    (Decode.all decoder)
