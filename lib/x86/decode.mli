(** IA-32 linear-sweep disassembler.

    This is the project's substitute for the commercial disassembler (IDA
    Pro) used in the paper.  It never raises on arbitrary input: a byte
    with no supported decoding becomes [Insn.Bad b] of length 1 and the
    sweep continues, which is the right behaviour when sweeping encrypted
    payload bytes looking for a decoder stub.

    Every entry point below decodes through {!next}.  Operands that carry
    no more than a register or a byte are preallocated and shared, not
    built per decode: the eight [Reg] and eight [Reg8] operands, the
    [Some] of each base register, the 256 [Bad b] instructions, and the
    boxed [int32] of every imm8/disp8 under zero and sign extension
    (zero-extended imm8s also as [Imm] operands).  All of them are
    immutable, so sharing them is invisible to callers. *)

type decoded = { off : int; len : int; insn : Insn.t }
(** One decoded instruction: offset and length in bytes within the swept
    region, and its AST. *)

val next : Byte_io.Reader.t -> Insn.t
(** Decode the instruction at the reader's cursor and move the cursor
    just past it: its length is how far the cursor moved.  A byte with
    no decoding (or an instruction cut off by the end of the view) is
    [Insn.Bad b], one byte long.  Builds no record and no option: the
    decode memo seeks one reader per region and calls this at each
    offset.  @raise Byte_io.Truncated on an empty reader. *)

val all : ?pos:int -> ?len:int -> ?max:int -> string -> decoded array
(** Sweep a region front to back.  Offsets are relative to [pos].
    [max] (default unlimited) caps the number of instructions decoded —
    the linear sweep's work bound on adversarially long regions. *)

val one : string -> Insn.t
(** Decode the instruction at the start of the buffer.
    @raise Invalid_argument on an empty buffer. *)

val at : string -> int -> decoded option
(** Decode a single instruction at a byte offset; [None] past the end. *)

val pp_listing : Format.formatter -> decoded array -> unit
(** Disassembly listing: offset, mnemonic per line. *)

val tables_intact : unit -> bool
(** The shared operand tables still hold exactly what they were built
    with — the check a test runs after scanning a corpus. *)
