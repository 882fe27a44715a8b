(** PAYL-style 1-gram payload anomaly detection (the paper's reference
    [12] family): learn the byte-frequency profile of benign traffic,
    then score new payloads by a simplified Mahalanobis distance.  Serves
    as the statistical baseline in the evaluation. *)

type model

val train : string list -> model
(** Fit mean and standard deviation per byte frequency over the corpus.
    @raise Invalid_argument on an empty corpus. *)

val score : model -> string -> float
(** Average per-byte deviation; higher = more anomalous.  0 for the empty
    payload. *)

val is_anomalous : ?threshold:float -> model -> string -> bool
(** Default threshold 1.5. *)
