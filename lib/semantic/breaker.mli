(** Per-template circuit breakers.

    A template whose matching cost explodes on the current traffic (a
    crafted payload family can drive one template's backtracking while
    every other template stays cheap) must not be allowed to burn the
    whole packet budget on every packet.  The breaker watches per-packet
    step-cap trips ({!Matcher.scan_report}'s [tripped] list): a template
    that trips on [failures] consecutive analyzed packets is {e opened}
    — excluded from matching — for a cooldown measured in packets, with
    exponential backoff on re-trips.  After the cooldown the breaker
    goes {e half-open}: the template is admitted for one probe packet,
    and a clean probe closes the breaker while another trip reopens it
    with a doubled cooldown (capped).

    Time is the analyzed-packet clock ({!tick} once per packet), not
    wall clock, so breaker behaviour is deterministic and replayable.
    Openings are counted as [sanids_breaker_open_total{template}] when a
    registry is supplied. *)

type config = {
  failures : int;  (** consecutive tripped packets before opening *)
  cooldown : int;  (** base open duration, in analyzed packets *)
  max_cooldown : int;  (** backoff ceiling, in analyzed packets *)
}

val default_config : config
(** [failures = 3], [cooldown = 64], [max_cooldown = 4096]. *)

val validate_config : config -> (config, string) result

val config_spec : config Spec.t
(** ["fails=N,cooldown=N,max=N"] over {!default_config}, or
    ["default"]; validated. *)

val config_to_string : config -> string
val config_of_string : string -> (config, string) result

type t

val create : ?metrics:Sanids_obs.Registry.t -> config -> t

val tick : t -> unit
(** Advance the packet clock by one analyzed packet. *)

val admit : t -> string -> bool
(** May this template be matched on the current packet?  [true] for
    closed and half-open (probe) breakers; [false] while open.  An open
    breaker whose cooldown has elapsed transitions to half-open and
    admits. *)

val record : t -> string -> tripped:bool -> unit
(** Report the template's outcome on a packet it was admitted for. *)

type state = Closed | Open of int  (** packets until half-open *) | Half_open

val state : t -> string -> state
val open_templates : t -> string list
(** Currently open template names, sorted. *)

val openings : t -> int
(** Total open transitions since creation (the metric's value). *)
