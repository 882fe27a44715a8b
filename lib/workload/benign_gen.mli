(** Seeded benign traffic synthesis.

    Stands in for the paper's production traces (Wisconsin Advanced
    Internet Laboratory captures; a month of Class C web traffic).  The
    mix is mostly well-formed HTTP with some SMTP, DNS and binary file
    transfer, none of it containing decoder loops, shell spawns or the
    Code Red vector — so any alert over this traffic is a false
    positive by construction. *)

type mix = {
  http : float;
  smtp : float;
  dns : float;
  binary : float;  (** compressed/media-like uploads: high-entropy data *)
}

val default_mix : mix

val payload : ?mix:mix -> Rng.t -> string
(** One application payload drawn from the mix. *)

val packet :
  ?mix:mix ->
  Rng.t ->
  ts:float ->
  clients:Ipaddr.prefix ->
  servers:Ipaddr.prefix ->
  Packet.t

val packets :
  ?mix:mix ->
  ?rate:float ->
  Rng.t ->
  n:int ->
  t0:float ->
  clients:Ipaddr.prefix ->
  servers:Ipaddr.prefix ->
  Packet.t list
(** [n] packets with exponential inter-arrivals at [rate] packets/s
    (default 1000), timestamps from [t0]. *)

val seq :
  ?mix:mix ->
  ?rate:float ->
  Rng.t ->
  n:int ->
  t0:float ->
  clients:Ipaddr.prefix ->
  servers:Ipaddr.prefix ->
  Packet.t Seq.t
(** Lazy variant for month-scale corpora. *)
