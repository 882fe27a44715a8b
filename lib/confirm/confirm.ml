module Emulator = Sanids_x86.Emulator
module Reg = Sanids_x86.Reg

type config = {
  max_steps : int;
  max_syscalls : int;
  min_written : int;
  arena_size : int;
}

let default_config =
  { max_steps = 20_000; max_syscalls = 16; min_written = 8; arena_size = Emulator.default_arena_size }

let validate_config c =
  if c.max_steps < 1 then Error "confirm: steps must be at least 1"
  else if c.max_steps > 10_000_000 then
    Error "confirm: steps above 10000000 defeats the bounded-execution point"
  else if c.max_syscalls < 1 then Error "confirm: syscalls must be at least 1"
  else if c.min_written < 1 then Error "confirm: written must be at least 1"
  else if c.arena_size < 8192 then
    Error "confirm: arena below 8192 leaves no room for code plus stack"
  else if c.arena_size > 1 lsl 24 then
    Error "confirm: arena above 16MiB is past any plausible payload"
  else Ok ()

let config_spec =
  let key name get set = Spec.field name Spec.int get set in
  Spec.record "confirm"
    ~check:(fun c -> Result.map (fun () -> c) (validate_config c))
    default_config
    [
      key "steps" (fun c -> c.max_steps) (fun max_steps c -> { c with max_steps });
      key "syscalls" (fun c -> c.max_syscalls) (fun max_syscalls c -> { c with max_syscalls });
      key "written" (fun c -> c.min_written) (fun min_written c -> { c with min_written });
      key "arena" (fun c -> c.arena_size) (fun arena_size c -> { c with arena_size });
    ]

let config_of_string = config_spec.Spec.parse
let config_to_string = config_spec.Spec.print

type reason = Budget | Fault of string

type outcome =
  | Confirmed_decrypt of { written : int; steps : int }
  | Confirmed_syscall of { nr : int; name : string; steps : int }
  | Refuted of string
  | Statically_refuted of string
  | Inconclusive of reason

let confirmed = function
  | Confirmed_decrypt _ | Confirmed_syscall _ -> true
  | Refuted _ | Statically_refuted _ | Inconclusive _ -> false

let label = function
  | Confirmed_decrypt _ -> "confirmed_decrypt"
  | Confirmed_syscall _ -> "confirmed_syscall"
  | Refuted _ -> "refuted"
  | Statically_refuted _ -> "static_refuted"
  | Inconclusive Budget -> "inconclusive_budget"
  | Inconclusive (Fault _) -> "inconclusive_fault"

let pp ppf = function
  | Confirmed_decrypt { written; steps } ->
      Format.fprintf ppf "confirmed: executed self-written bytes (%d written, %d steps)"
        written steps
  | Confirmed_syscall { nr; name; steps } ->
      Format.fprintf ppf "confirmed: reached %s (int 0x80 eax=%d, %d steps)" name
        nr steps
  | Refuted msg -> Format.fprintf ppf "refuted: %s" msg
  | Statically_refuted msg -> Format.fprintf ppf "statically refuted: %s" msg
  | Inconclusive Budget -> Format.fprintf ppf "inconclusive: step budget exhausted"
  | Inconclusive (Fault msg) -> Format.fprintf ppf "inconclusive: %s" msg

(* Linux int 0x80 numbers that close the case: a payload that execves or
   opens a socket has proven hostile intent.  socketcall subcalls 1..17
   cover socket/bind/connect/listen/accept/…; anything else through
   eax=102 is treated as a plain (faked) syscall. *)
let sys_execve = 11
let sys_socketcall = 102

let run ?(config = default_config) ~code ~entry () =
  let len = String.length code in
  if len = 0 then Inconclusive (Fault "empty code image")
  else if entry < 0 || entry >= len then
    Inconclusive (Fault (Printf.sprintf "entry 0x%x outside %d-byte image" entry len))
  else if len > Emulator.code_limit ~arena_size:config.arena_size then
    Inconclusive
      (Fault
         (Printf.sprintf "image of %d bytes does not fit the %d-byte arena" len
            config.arena_size))
  else begin
    let emu = Emulator.create ~arena_size:config.arena_size ~code () in
    Emulator.set_eip emu (Int32.add Emulator.code_base (Int32.of_int entry));
    let rec loop steps syscalls =
      (* the emulator logs guest stores only, not the code [create]
         loaded: executing a logged byte means the payload modified
         itself (or built code on its stack) *)
      if Emulator.written_count emu >= config.min_written
         && Emulator.was_written emu (Emulator.eip emu)
      then Confirmed_decrypt { written = Emulator.written_count emu; steps }
      else if steps >= config.max_steps then Inconclusive Budget
      else
        match Emulator.step emu with
        | Emulator.Running -> loop (steps + 1) syscalls
        | Emulator.Halted msg -> Refuted msg
        | Emulator.Syscall 0x80 -> (
            let nr =
              Int32.to_int (Int32.logand (Emulator.reg emu Reg.EAX) 0xFFl)
            in
            if nr = sys_execve then
              Confirmed_syscall { nr; name = "execve"; steps = steps + 1 }
            else
              let socket_like =
                nr = sys_socketcall
                &&
                let sub = Emulator.reg emu Reg.EBX in
                Int32.compare sub 1l >= 0 && Int32.compare sub 17l <= 0
              in
              if socket_like then
                Confirmed_syscall { nr; name = "socketcall"; steps = steps + 1 }
              else if syscalls + 1 >= config.max_syscalls then
                Refuted
                  (Printf.sprintf
                     "%d syscalls without execve or socketcall" (syscalls + 1))
              else begin
                (* fake a kernel: plausible small success return *)
                Emulator.set_reg emu Reg.EAX 3l;
                loop (steps + 1) (syscalls + 1)
              end)
        | Emulator.Syscall n ->
            Refuted (Printf.sprintf "interrupt 0x%x is not a linux syscall" n)
    in
    loop 0 0
  end
