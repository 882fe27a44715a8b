(** Single-step vector harness for the {!Sanids_x86.Emulator}.

    The confirmation stage is only as trustworthy as the machine under
    it, so the machine is validated against a committed corpus of
    SingleStepTests-style JSON vectors.  A vector file is an array of
    cases:

    {v
    [ { "name": "add8 carry",
        "steps": 1,
        "flags_mask": 0xC5,
        "initial": { "eip": 0, "regs": {"eax": 255}, "flags": 0,
                     "mem": [[0, 4], [1, 1]] },
        "final":   { "eip": 2, "regs": {"eax": 256}, "flags": 0x11 } } ]
    v}

    Memory entries are [[offset, byte]] pairs relative to
    {!Sanids_x86.Emulator.code_base}; [eip] is an offset too.  Every
    [final] field is optional — only listed state is compared.  Flags
    compare under [flags_mask] (default [0xCC5]: CF, PF, ZF, SF, DF, OF;
    the reserved always-one bit is excluded).  Integers may be written
    in [0x] hex. *)

type failure = { f_file : string; f_case : string; f_details : string list }

type report = { files : int; cases : int; failures : failure list }

val passed : report -> int

val run :
  ?filter:string -> ?jobs:int -> string list -> (report, string) result
(** Load and execute a corpus.  [filter] is a [*]-glob over case names;
    [jobs] > 1 spreads cases over that many domains. *)
