(** Dynamic confirmation: a bounded, deterministic second verdict stage.

    A semantic-matcher hit says a payload {e looks like} a decoder or a
    shell-spawn; this stage actually {e runs} it in the sandboxed
    {!Sanids_x86.Emulator} and watches what it does.  The payload image
    is loaded at {!Sanids_x86.Emulator.code_base}, execution starts at
    the matched entry offset, and the run is classified under a strict
    step / syscall / memory budget:

    - {!Confirmed_decrypt}: the guest stored at least [min_written]
      distinct bytes and then {e executed} bytes it had written — the
      definition of a self-decrypting decoder.
    - {!Confirmed_syscall}: reached [int 0x80] with [eax]=execve(11),
      or socketcall(102) with a valid subcall in [ebx] — a directly
      hostile syscall.
    - {!Refuted}: the guest faulted, hit an undecodable byte, or burned
      its syscall budget without doing anything hostile.  A matcher hit
      that cannot survive concrete execution was a false positive.
    - {!Inconclusive}: the step budget ran out ([Budget]) or the image
      could not even be seeded ([Fault]) — no judgement either way.

    Every run is deterministic: same image, same entry, same config,
    same outcome.  The faked kernel returns [eax=3] for every other
    syscall so multi-syscall payloads keep running. *)

type config = {
  max_steps : int;  (** instruction budget (default 20_000) *)
  max_syscalls : int;
      (** faked syscalls tolerated before refuting (default 16) *)
  min_written : int;
      (** distinct guest-written bytes required before
          executing-written-bytes counts as decryption (default 8) *)
  arena_size : int;  (** emulator arena in bytes (default 256 KiB) *)
}

val default_config : config

val validate_config : config -> (unit, string) result

val config_spec : config Spec.t
(** ["steps=N,syscalls=N,written=N,arena=N"] over {!default_config},
    or ["default"]; validated. *)

val config_of_string : string -> (config, string) result
val config_to_string : config -> string

type reason = Budget | Fault of string

type outcome =
  | Confirmed_decrypt of { written : int; steps : int }
  | Confirmed_syscall of { nr : int; name : string; steps : int }
  | Refuted of string
  | Statically_refuted of string
      (** the abstract pre-stage ({!Static_refute}) proved that concrete
          emulation must refute this hit, so the emulator never ran.
          Only the pipeline composes this in; {!run} never returns it. *)
  | Inconclusive of reason

val confirmed : outcome -> bool
(** [true] on either [Confirmed_] constructor. *)

val label : outcome -> string
(** Stable low-cardinality metric label: [confirmed_decrypt],
    [confirmed_syscall], [refuted], [static_refuted],
    [inconclusive_budget], [inconclusive_fault]. *)

val pp : Format.formatter -> outcome -> unit

val run : ?config:config -> code:string -> entry:int -> unit -> outcome
(** Execute [code] from byte offset [entry] and classify the run.
    Never raises. *)
