(** IA-32 general-purpose registers. *)

type t = EAX | ECX | EDX | EBX | ESP | EBP | ESI | EDI
(** 32-bit registers, in hardware encoding order (EAX = 0, ..., EDI = 7). *)

type r8 = AL | CL | DL | BL | AH | CH | DH | BH
(** 8-bit registers, in hardware encoding order. *)

val code : t -> int
(** 3-bit hardware encoding. *)

val of_code : int -> t
(** Inverse of {!code}.  @raise Invalid_argument outside [\[0, 7\]]. *)

val code8 : r8 -> int

val name : t -> string
(** Lowercase mnemonic, e.g. ["eax"]. *)

val all : t array
(** All eight registers in encoding order. *)

val all8 : r8 array

val low8 : t -> r8 option
(** [low8 EAX = Some AL]; [None] for [ESP]/[EBP]/[ESI]/[EDI], which have no
    byte alias in 32-bit mode's low-register encoding we model. *)

val parent8 : r8 -> t
(** The 32-bit register whose low or high byte an 8-bit register aliases:
    [parent8 AL = EAX], [parent8 AH = EAX], etc. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp8 : Format.formatter -> r8 -> unit
