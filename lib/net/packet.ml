type l4 = Tcp_seg of Tcp.t | Udp_dgram of Udp.t | Raw of int * Slice.t

type t = { ts : float; ip : Ipv4.t; l4 : l4 }

let build_tcp ~ts ~src ~dst ~src_port ~dst_port ?(seq = 1000l) ?(ack_no = 0l)
    ?(flags = Tcp.flags_pshack) ?(ttl = 64) ?(ident = 0) payload =
  let seg =
    {
      Tcp.src_port;
      dst_port;
      seq;
      ack_no;
      flags;
      window = 65535;
      payload = Slice.of_string payload;
    }
  in
  let ip =
    {
      Ipv4.src;
      dst;
      proto = Ipv4.proto_tcp;
      ttl;
      ident;
      payload = Slice.of_string (Tcp.encode ~src ~dst seg);
    }
  in
  { ts; ip; l4 = Tcp_seg seg }

let build_udp ~ts ~src ~dst ~src_port ~dst_port ?(ttl = 64) ?(ident = 0) payload =
  let dgram = { Udp.src_port; dst_port; payload = Slice.of_string payload } in
  let ip =
    {
      Ipv4.src;
      dst;
      proto = Ipv4.proto_udp;
      ttl;
      ident;
      payload = Slice.of_string (Udp.encode ~src ~dst dgram);
    }
  in
  { ts; ip; l4 = Udp_dgram dgram }

let to_bytes t = Ipv4.encode t.ip

let src t = t.ip.Ipv4.src
let dst t = t.ip.Ipv4.dst

let ports t =
  match t.l4 with
  | Tcp_seg s -> Some (s.Tcp.src_port, s.Tcp.dst_port)
  | Udp_dgram d -> Some (d.Udp.src_port, d.Udp.dst_port)
  | Raw _ -> None

let payload t =
  match t.l4 with
  | Tcp_seg s -> s.Tcp.payload
  | Udp_dgram d -> d.Udp.payload
  | Raw (_, p) -> p

let payload_string t = Slice.to_string (payload t)
let is_tcp t = match t.l4 with Tcp_seg _ -> true | Udp_dgram _ | Raw _ -> false
