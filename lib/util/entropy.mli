(** Byte-distribution statistics used by the PAYL-style baseline and the
    Clet-style spectrum shaper. *)

val histogram : string -> int array
(** 256-bin byte count of the input. *)

val chi_square : observed:int array -> expected:float array -> float
(** Pearson chi-square distance between a 256-bin count and a 256-bin
    expected frequency profile (the profile is scaled to the observed
    total).  Expected bins below a small floor are clamped. *)

val normalize : int array -> float array
(** Counts to frequencies summing to 1 (uniform profile when the total is
    zero). *)
