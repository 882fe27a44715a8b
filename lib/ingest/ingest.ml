module Obs = Sanids_obs
module Pcap = Sanids_pcap.Pcap

type error =
  | Pcap_framing of string
  | Link_layer of string
  | Ipv4_header of string
  | Tcp_segment of string
  | Udp_datagram of string
  | Payload_bound of string

let reason = function
  | Pcap_framing _ -> "pcap_framing"
  | Link_layer _ -> "link_layer"
  | Ipv4_header _ -> "ipv4"
  | Tcp_segment _ -> "tcp"
  | Udp_datagram _ -> "udp"
  | Payload_bound _ -> "payload_bound"

let reasons = [ "pcap_framing"; "link_layer"; "ipv4"; "tcp"; "udp"; "payload_bound" ]

let detail = function
  | Pcap_framing m | Link_layer m | Ipv4_header m | Tcp_segment m
  | Udp_datagram m | Payload_bound m ->
      m

let error_to_string e = Printf.sprintf "%s: %s" (reason e) (detail e)

let records_total = "sanids_ingest_records_total"
let errors_total = "sanids_ingest_errors_total"

type metrics = {
  records : Obs.Registry.counter;
  errors : (string * Obs.Registry.counter) list;  (* reason -> series *)
}

let metrics reg =
  {
    records = Obs.Registry.counter reg ~help:"capture records offered to ingest" records_total;
    errors =
      (* pre-register every reason so exports always carry the whole
         family, zeros included — reconciliation needs no absent-series
         special case *)
      List.map
        (fun r ->
          ( r,
            Obs.Registry.counter reg ~help:"records rejected by ingest, by layer"
              ~labels:[ ("reason", r) ] errors_total ))
        reasons;
  }

let count_error m e = Obs.Registry.incr (List.assoc (reason e) m.errors)

let count_result m result =
  match m with
  | None -> ()
  | Some m -> (
      Obs.Registry.incr m.records;
      match result with Ok _ -> () | Error e -> count_error m e)

let default_max_payload = 0xFFFF
let ethernet_header = 14

(* The admission bound is on the datagram, the record less its link
   header, so it reads off the record length alone: the FIFO source
   applies it from the record header, before the body arrives. *)
let bound_error ~max_payload ~linktype incl_len =
  let len = if linktype = Pcap.linktype_ethernet then incl_len - ethernet_header else incl_len in
  if len > max_payload then
    Some
      (Payload_bound
         (Printf.sprintf "datagram of %d bytes exceeds bound %d" len max_payload))
  else None

let admit ?metrics ~linktype incl_len =
  match bound_error ~max_payload:default_max_payload ~linktype incl_len with
  | None -> true
  | Some e ->
      count_result metrics (Error e);
      false

(* The one record -> packet chain: the link layer here, then
   [Packet.decode] checks IPv4 and TCP/UDP in place, each failure typed
   by the layer that rejected it.  An accepted record allocates its
   packet and the [Ok] around it, nothing else.  The catch-all honours
   the "no exception crosses the boundary" contract even against a
   decoder bug — the decoder is result-returning, but this layer must
   not trust that under arbitrary input. *)
let parse_datagram ~ts data ~off =
  match Packet.decode ~ts data ~off with
  | Ok _ as ok -> ok
  | Error (Packet.Ipv4_header m) -> Error (Ipv4_header m)
  | Error (Packet.Tcp_segment m) -> Error (Tcp_segment m)
  | Error (Packet.Udp_datagram m) -> Error (Udp_datagram m)
  | exception e -> Error (Ipv4_header ("unexpected: " ^ Printexc.to_string e))

(* The link layer by offset: an Ethernet II header is two addresses,
   which nothing downstream reads, and the ethertype at byte 12; the
   datagram starts at byte 14. *)
let parse_body ~linktype ~ts data =
  if linktype = Pcap.linktype_ethernet then
    if Slice.length data < ethernet_header then Error (Link_layer "ethernet: short frame")
    else
      let ethertype = Slice.get_u16_be data 12 in
      if ethertype <> Ethernet.ethertype_ipv4 then
        Error (Link_layer (Printf.sprintf "ethertype 0x%04x" ethertype))
      else parse_datagram ~ts data ~off:ethernet_header
  else if linktype = Pcap.linktype_raw then parse_datagram ~ts data ~off:0
  else Error (Link_layer (Printf.sprintf "unsupported linktype %d" linktype))

let decode_record ?metrics ?(max_payload = default_max_payload) ~linktype r =
  let result =
    match bound_error ~max_payload ~linktype (Slice.length r.Pcap.data) with
    | Some e -> Error e
    | None -> parse_body ~linktype ~ts:r.Pcap.ts r.Pcap.data
  in
  count_result metrics result;
  result

let decode_file ?metrics s =
  let result =
    match Pcap.decode s with
    | Ok f -> Ok f
    | Error m -> Error (Pcap_framing m)
    | exception e -> Error (Pcap_framing ("unexpected: " ^ Printexc.to_string e))
  in
  (match (metrics, result) with
  | Some m, Error e -> count_error m e
  | Some _, Ok _ | None, _ -> ());
  result

let ok_packets ?metrics ?max_payload (f : Pcap.file) =
  List.filter_map
    (fun r -> Result.to_option (decode_record ?metrics ?max_payload ~linktype:f.Pcap.linktype r))
    f.Pcap.records
