(* The reference decoder: the record -> packet chain that the in-place
   view decoder in [Sanids_net.Packet.decode] replaced, kept as the
   oracle of the property "view decoder ≡ reference decoder"
   ([test_net.ml]).  Each layer parses into its own record (an [Ipv4.t],
   then a [Tcp.t] or [Udp.t], each holding its payload as a [Slice.t],
   sequence numbers as boxed [int32], flags as a record), and the
   packet is the IP record plus a variant for the layer above.  The
   encoders the packet builders replaced are kept beside their
   decoders, for tests that need a header field the builders fix (a
   window, an acknowledgement number). *)

open Sanids_net
module Ingest = Sanids_ingest.Ingest
module Pcap = Sanids_pcap.Pcap

let proto_tcp = 6
let proto_udp = 17

let pseudo_header ~src ~dst ~proto ~len =
  Checksum.pseudo_header ~src:(Ipaddr.to_int src) ~dst:(Ipaddr.to_int dst) ~proto ~len

module Ipv4 = struct
  type t = {
    src : Ipaddr.t;
    dst : Ipaddr.t;
    proto : int;
    ttl : int;
    ident : int;
    payload : Slice.t;
  }

  let encode t =
    let w = Byte_io.Writer.create ~capacity:(20 + Slice.length t.payload) () in
    let total_len = 20 + Slice.length t.payload in
    if total_len > 0xFFFF then invalid_arg "Ipv4.encode: datagram too large";
    Byte_io.Writer.u8 w 0x45;
    Byte_io.Writer.u8 w 0;
    Byte_io.Writer.u16_be w total_len;
    Byte_io.Writer.u16_be w t.ident;
    Byte_io.Writer.u16_be w 0x4000;
    Byte_io.Writer.u8 w t.ttl;
    Byte_io.Writer.u8 w t.proto;
    Byte_io.Writer.u16_be w 0;
    Byte_io.Writer.u32_be w (Ipaddr.to_int32 t.src);
    Byte_io.Writer.u32_be w (Ipaddr.to_int32 t.dst);
    let csum = Checksum.ones_complement 0 (Slice.of_string (Byte_io.Writer.contents w)) in
    Byte_io.Writer.patch_u16_be w 10 csum;
    Byte_io.Writer.slice w t.payload;
    Byte_io.Writer.contents w

  let decode s =
    if Slice.length s = 0 then Error "truncated"
    else
      let vi = Slice.get_u8 s 0 in
      let ihl = (vi land 0xF) * 4 in
      if vi lsr 4 <> 4 then Error "not IPv4"
      else if ihl < 20 then Error "bad IHL"
      else if Slice.length s < ihl then Error "truncated header"
      else
        let total_len = Slice.get_u16_be s 2 in
        if total_len < ihl || total_len > Slice.length s then Error "bad total length"
        else if Checksum.ones_complement 0 (Slice.sub s ~off:0 ~len:ihl) <> 0 then
          Error "bad header checksum"
        else
          Ok
            {
              src = Ipaddr.of_int (Slice.get_u32_be_int s 12);
              dst = Ipaddr.of_int (Slice.get_u32_be_int s 16);
              proto = Slice.get_u8 s 9;
              ttl = Slice.get_u8 s 8;
              ident = Slice.get_u16_be s 4;
              payload = Slice.sub s ~off:ihl ~len:(total_len - ihl);
            }
end

module Tcp = struct
  type flags = Sanids_net.Tcp.flags = {
    syn : bool;
    ack : bool;
    fin : bool;
    rst : bool;
    psh : bool;
    urg : bool;
  }

  let flags_of_byte b =
    {
      fin = b land 1 <> 0;
      syn = b land 2 <> 0;
      rst = b land 4 <> 0;
      psh = b land 8 <> 0;
      ack = b land 16 <> 0;
      urg = b land 32 <> 0;
    }

  type t = {
    src_port : int;
    dst_port : int;
    seq : int32;
    ack_no : int32;
    flags : flags;
    window : int;
    payload : Slice.t;
  }

  let encode ~src ~dst t =
    let w = Byte_io.Writer.create ~capacity:(20 + Slice.length t.payload) () in
    Byte_io.Writer.u16_be w t.src_port;
    Byte_io.Writer.u16_be w t.dst_port;
    Byte_io.Writer.u32_be w t.seq;
    Byte_io.Writer.u32_be w t.ack_no;
    Byte_io.Writer.u8 w 0x50;
    Byte_io.Writer.u8 w (Sanids_net.Tcp.flags_byte t.flags);
    Byte_io.Writer.u16_be w t.window;
    Byte_io.Writer.u16_be w 0;
    Byte_io.Writer.u16_be w 0;
    Byte_io.Writer.slice w t.payload;
    let seg = Byte_io.Writer.contents w in
    let len = String.length seg in
    let pseudo = pseudo_header ~src ~dst ~proto:proto_tcp ~len in
    Byte_io.Writer.patch_u16_be w 16 (Checksum.ones_complement pseudo (Slice.of_string seg));
    Byte_io.Writer.contents w

  let decode ~src ~dst s =
    let len = Slice.length s in
    if len < 20 then Error "short segment"
    else
      let off = Slice.get_u8 s 12 lsr 4 * 4 in
      if off < 20 || off > len then Error "bad data offset"
      else
        let pseudo = pseudo_header ~src ~dst ~proto:proto_tcp ~len in
        if Checksum.ones_complement pseudo s <> 0 then Error "bad checksum"
        else
          Ok
            {
              src_port = Slice.get_u16_be s 0;
              dst_port = Slice.get_u16_be s 2;
              seq = Int32.of_int (Slice.get_u32_be_int s 4);
              ack_no = Int32.of_int (Slice.get_u32_be_int s 8);
              flags = flags_of_byte (Slice.get_u8 s 13);
              window = Slice.get_u16_be s 14;
              payload = Slice.sub s ~off ~len:(len - off);
            }
end

module Udp = struct
  type t = { src_port : int; dst_port : int; payload : Slice.t }

  let encode ~src ~dst t =
    let len = 8 + Slice.length t.payload in
    let w = Byte_io.Writer.create ~capacity:len () in
    Byte_io.Writer.u16_be w t.src_port;
    Byte_io.Writer.u16_be w t.dst_port;
    Byte_io.Writer.u16_be w len;
    Byte_io.Writer.u16_be w 0;
    Byte_io.Writer.slice w t.payload;
    let pseudo = pseudo_header ~src ~dst ~proto:proto_udp ~len in
    let csum = Checksum.ones_complement pseudo (Slice.of_string (Byte_io.Writer.contents w)) in
    let csum = if csum = 0 then 0xFFFF else csum in
    Byte_io.Writer.patch_u16_be w 6 csum;
    Byte_io.Writer.contents w

  let decode ~src ~dst s =
    if Slice.length s < 8 then Error "short datagram"
    else
      let len = Slice.get_u16_be s 4 in
      if len < 8 || len > Slice.length s then Error "bad length"
      else if
        Slice.get_u16_be s 6 <> 0
        && Checksum.ones_complement
             (pseudo_header ~src ~dst ~proto:proto_udp ~len)
             (Slice.sub s ~off:0 ~len)
           <> 0
      then Error "bad checksum"
      else
        Ok
          {
            src_port = Slice.get_u16_be s 0;
            dst_port = Slice.get_u16_be s 2;
            payload = Slice.sub s ~off:8 ~len:(len - 8);
          }
end

type l4 = Tcp_seg of Tcp.t | Udp_dgram of Udp.t | Raw of int * Slice.t
type packet = { ts : float; ip : Ipv4.t; l4 : l4 }

let payload p =
  match p.l4 with Tcp_seg s -> s.Tcp.payload | Udp_dgram d -> d.Udp.payload | Raw (_, s) -> s

let ports p =
  match p.l4 with
  | Tcp_seg s -> Some (s.Tcp.src_port, s.Tcp.dst_port)
  | Udp_dgram d -> Some (d.Udp.src_port, d.Udp.dst_port)
  | Raw _ -> None

(* The chain as [Ingest] ran it: link layer, IPv4, then TCP or UDP,
   each failure typed by its layer with the same detail strings. *)
let parse_datagram ~ts bytes =
  match Ipv4.decode bytes with
  | Error e -> Error (Ingest.Ipv4_header e)
  | Ok ip ->
      if ip.Ipv4.proto = proto_tcp then
        match Tcp.decode ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst ip.Ipv4.payload with
        | Ok seg -> Ok { ts; ip; l4 = Tcp_seg seg }
        | Error e -> Error (Ingest.Tcp_segment e)
      else if ip.Ipv4.proto = proto_udp then
        match Udp.decode ~src:ip.Ipv4.src ~dst:ip.Ipv4.dst ip.Ipv4.payload with
        | Ok d -> Ok { ts; ip; l4 = Udp_dgram d }
        | Error e -> Error (Ingest.Udp_datagram e)
      else Ok { ts; ip; l4 = Raw (ip.Ipv4.proto, ip.Ipv4.payload) }

let decode_record ~linktype (r : Pcap.record) =
  let data = r.Pcap.data and ts = r.Pcap.ts in
  if linktype = Pcap.linktype_ethernet then
    let len = Slice.length data in
    if len < 14 then Error (Ingest.Link_layer "ethernet: short frame")
    else
      let ethertype = Slice.get_u16_be data 12 in
      if ethertype <> Ethernet.ethertype_ipv4 then
        Error (Ingest.Link_layer (Printf.sprintf "ethertype 0x%04x" ethertype))
      else parse_datagram ~ts (Slice.sub data ~off:14 ~len:(len - 14))
  else if linktype = Pcap.linktype_raw then parse_datagram ~ts data
  else Error (Ingest.Link_layer (Printf.sprintf "unsupported linktype %d" linktype))
