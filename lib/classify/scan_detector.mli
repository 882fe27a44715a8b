(** Unused-address-space scan detection (paper §4.1, second scheme).

    The operator declares which address ranges are unused.  A source
    touching [threshold] {e distinct} unused addresses is flagged as a
    scanner; from then on its packets are handed to the analysis
    stages. *)

type t

val create : ?threshold:int -> Ipaddr.prefix list -> t
(** [threshold] defaults to 5. *)

val observe : t -> src:Ipaddr.t -> dst:Ipaddr.t -> bool
(** Record one packet; [true] iff the source is (now) flagged. *)

val is_scanner : t -> Ipaddr.t -> bool
val count : t -> Ipaddr.t -> int
(** Distinct unused addresses this source has touched. *)

val scanner_count : t -> int
