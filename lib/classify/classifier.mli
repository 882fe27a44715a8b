(** The combined traffic classifier: a packet is handed to the expensive
    analysis stages iff its source has touched a honeypot, or has scanned
    past the unused-address threshold — or classification is disabled
    (the configuration of the paper's §5.4 false-positive run, where
    every payload is analyzed). *)

type reason = Honeypot_sender | Scanner | Classification_disabled

type verdict = Suspicious of reason | Benign

type t

val create :
  ?metrics:Sanids_obs.Registry.t ->
  ?honeypots:Ipaddr.t list ->
  ?unused:Ipaddr.prefix list ->
  ?scan_threshold:int ->
  ?enabled:bool ->
  unit ->
  t
(** When [metrics] is given, every classification bumps one of the
    per-verdict counters [sanids_classify_benign_total],
    [sanids_classify_honeypot_total], [sanids_classify_scanner_total],
    [sanids_classify_forced_total] in that registry. *)

val classify : t -> Packet.t -> verdict
(** Updates classifier state and renders the verdict for this packet. *)

val reason_to_string : reason -> string
val honeypot : t -> Honeypot.t
