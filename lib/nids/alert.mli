(** Alerts raised by the semantic analyzer. *)

type t = {
  ts : float;
  src : Ipaddr.t;
  dst : Ipaddr.t;
  src_port : int;
  dst_port : int;
  template : string;  (** matching template name *)
  reason : Sanids_classify.Classifier.reason;  (** why the packet was analyzed *)
  frame_off : int;  (** payload offset of the matched frame *)
  frame_origin : Sanids_extract.Extractor.origin;
  detail : string;  (** rendered variable bindings *)
  degraded : bool;
      (** raised by the degraded (baseline pattern) pass, not the full
          semantic matcher *)
  confirmed : bool;
      (** the dynamic-confirmation stage executed the match and proved
          it (decryption observed or a hostile syscall reached); renders
          as [[confirmed]] *)
}

val make :
  ?degraded:bool ->
  ?confirmed:bool ->
  packet:Packet.t ->
  reason:Sanids_classify.Classifier.reason ->
  frame:Sanids_extract.Extractor.frame ->
  result:Matcher.result ->
  unit ->
  t

val to_line : t -> string
(** One-line log rendering. *)
