(** Behavioural templates, after Christodorescu et al. (the paper's [5]).

    A template describes {e behaviour}: a sequence of semantic steps over
    register variables and constant variables, plus guards on the bound
    constants.  A program satisfies a template iff some execution-order
    instruction sequence exhibits every step in order, with consistent
    variable bindings, where instructions that do not disturb the bound
    state may be freely interleaved (junk/NOP insertion), register names
    are unified per match (register reassignment), and constants are
    recognized through any arithmetic route ({!Absint}). *)

type tvar = string
(** Register variable, e.g. ["ptr"]. *)

type cvar = string
(** Constant variable, e.g. ["key"]. *)

type pval =
  | Exact of int32  (** must be a known constant with this value *)
  | Any  (** no constraint (need not even be a constant) *)
  | Bind of cvar  (** any known constant; bound for guards / later steps *)
  | Same of cvar  (** a known constant equal to an earlier binding *)

type width_req = W8 | W32 | Wany

type pstep =
  | Load of { dst : tvar; ptr : tvar; width : width_req }
      (** a register receives the byte/word at [\[ptr\]] *)
  | Mem_transform of {
      ops : Sem.rop list;
      ptr : tvar;
      key : pval;
      width : width_req;
    }  (** read-modify-write of [\[ptr\]] by one of [ops] *)
  | Reg_transform of { ops : Sem.rop list; reg : tvar }
      (** arithmetic on a bound register (decoder working value) *)
  | Store of { src : tvar; ptr : tvar; width : width_req }
  | Ptr_advance of { ptr : tvar }
      (** pointer stepped by a small constant, any spelling *)
  | Back_edge
      (** a backwards branch to (at or before) the first matched step *)
  | Syscall of { vector : int; al : pval; bl : pval }
      (** [int vector] with the low bytes of EAX and (optionally) EBX
          constrained — EBX selects the socketcall subcall on Linux *)
  | Stack_const of pval
      (** a known constant placed on the stack or into memory *)
  | Code_const of int32
      (** any instruction carrying this immediate or displacement *)

type quant =
  | Once of pstep
  | Many of pstep  (** one or more, possibly interleaved with junk *)

type guard =
  | Nonzero of cvar
  | Equals of cvar * int32
  | One_of of cvar * int32 list
  | Differ of cvar * cvar

type t = {
  name : string;
  description : string;
  steps : quant list;
  guards : guard list;
  max_gap : int;
      (** maximum skipped instructions between consecutive matched steps *)
  data : string list;
      (** byte strings that must appear verbatim somewhere in the scanned
          region — worm bodies carry protocol verbs ("MAIL FROM:") as
          data next to their propagation code *)
}

val make :
  name:string -> description:string -> ?guards:guard list -> ?max_gap:int ->
  ?data:string list -> quant list -> t
(** [max_gap] defaults to 24; [data] to []. *)

val check_guard : (cvar * int32) list -> guard -> bool
(** Evaluate one guard against bound constants; unbound variables fail. *)

val pp : Format.formatter -> t -> unit
val pp_pstep : Format.formatter -> pstep -> unit
