(** A small Snort-style rule language for the signature baseline.

    Supported subset — enough to express the 2006-era rules the paper
    compares against:

    {v
    alert tcp any any -> any 80 (msg:"shellcode"; content:"/bin/sh";)
    alert tcp any any -> any any (msg:"nop sled"; content:"|90 90 90 90|"; nocase;)
    alert udp any any -> any 1434 (msg:"slammer"; content:"|04|"; offset:0; depth:1;)
    v}

    Header: action [alert], protocol [tcp|udp|ip], source/destination
    address ([any] or CIDR) and port ([any] or number).  Options: [msg],
    any number of [content] (all must match — logical AND), [nocase],
    [offset], [depth].  Hex bytes go between pipes, mixed freely with
    text. *)

type proto = P_tcp | P_udp | P_ip

type content = {
  pattern : string;
  nocase : bool;
  offset : int;  (** search start, default 0 *)
  depth : int option;  (** search window from [offset], default unbounded *)
}

type t = {
  proto : proto;
  src : Ipaddr.prefix option;  (** [None] = any *)
  src_port : int option;
  dst : Ipaddr.prefix option;
  dst_port : int option;
  msg : string;
  contents : content list;
}

val parse : string -> (t, string) Stdlib.result
(** Parse one rule.  Comment lines (leading ['#']) and blank lines are
    [Error "empty"]. *)

val parse_many : string -> t list * (int * string) list
(** Parse a ruleset (one rule per line).  Returns the rules and the
    [(line, error)] pairs for lines that failed (comments and blanks are
    skipped silently). *)

val match_packet : t list -> Packet.t -> string list
(** Messages of every rule the packet satisfies (header filter plus all
    contents present). *)

val match_payload : t list -> string -> string list
(** Content-only matching, ignoring header filters. *)

val default_ruleset : string
(** The shipped ruleset: 2006-style static signatures taken from the
    {e unobfuscated} exploit corpus (the classic [/bin/sh] shellcode
    bytes, a NOP sled, the Code Red II and Slammer vectors).  They catch
    the plain exploits and the fixed worm vectors and miss polymorphic
    instances, the paper's motivation. *)

val default : t list
(** {!default_ruleset}, parsed once. *)
