type t = {
  ts : float;
  base : string;
  ip_off : int;
  l4_off : int;
  payload_off : int;
  payload_len : int;
  proto : int;
  flags : int;
}

type error = Ipv4_header of string | Tcp_segment of string | Udp_datagram of string

let proto_tcp = 6
let proto_udp = 17

(* Header fields by offset.  The dev profile compiles with [-opaque],
   so a reader from another module is a call on every use: the loads
   and byte swaps are primitives declared here. *)
external get16ne : string -> int -> int = "%caml_string_get16"
external get32ne : string -> int -> int32 = "%caml_string_get32"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external big_endian : unit -> bool = "%big_endian"

let get8 s i = Char.code (String.get s i)
let get16 s i = if big_endian () then get16ne s i else bswap16 (get16ne s i)

let get32 s i =
  let w = get32ne s i in
  Int32.to_int (if big_endian () then w else bswap32 w) land 0xFFFF_FFFF

(* ------------------------------------------------------------------ *)
(* Building: the datagram is encoded once, and the packet is its view.
   Every header is a list of 16-bit words, so each checksum is the sum
   of the words around it (and of the pseudo-header) carried into the
   payload's sum; nothing is read back from the buffer. *)

let ip_header = 20

(* A word is stored, and summed, as its low 16 bits. *)
let put_words b off words = Array.iteri (fun i w -> Bytes.set_uint16_be b (off + (2 * i)) w) words
let sum_words = Array.fold_left (fun acc w -> acc + (w land 0xFFFF)) 0

(* [l4] is the transport header, its checksum word [csum_at] zero. *)
let build ~ts ~src ~dst ~proto ~ttl ~ident ~flags ~csum_at l4 payload =
  let hlen = 2 * Array.length l4 and plen = String.length payload in
  let l4_len = hlen + plen in
  let total = ip_header + l4_len in
  if total > 0xFFFF then invalid_arg "Packet.build: datagram too large";
  let a = Ipaddr.to_int src and b = Ipaddr.to_int dst in
  (* version 4, IHL 5; don't fragment; checksum word 5 *)
  let ip =
    [| 0x4500; total; ident; 0x4000; (ttl lsl 8) lor proto; 0;
       a lsr 16; a land 0xFFFF; b lsr 16; b land 0xFFFF |]
  in
  ip.(5) <- Checksum.ones_complement (sum_words ip) Slice.empty;
  let pseudo = Checksum.pseudo_header ~src:a ~dst:b ~proto ~len:l4_len in
  let c = Checksum.ones_complement (pseudo + sum_words l4) (Slice.of_string payload) in
  (* a computed UDP checksum of 0 goes out as 0xFFFF: 0 means "none" *)
  l4.(csum_at) <- (if proto = proto_udp && c = 0 then 0xFFFF else c);
  let d = Bytes.create total in
  put_words d 0 ip;
  put_words d ip_header l4;
  Bytes.blit_string payload 0 d (ip_header + hlen) plen;
  {
    ts;
    base = Bytes.unsafe_to_string d;
    ip_off = 0;
    l4_off = ip_header;
    payload_off = ip_header + hlen;
    payload_len = plen;
    proto;
    flags;
  }

let build_tcp ~ts ~src ~dst ~src_port ~dst_port ?(seq = 1000l) ?(ack_no = 0l)
    ?(flags = Tcp.flags_pshack) ?(ttl = 64) ?(ident = 0) payload =
  let seq = Int32.to_int seq land 0xFFFF_FFFF and ack = Int32.to_int ack_no land 0xFFFF_FFFF in
  let flags = Tcp.flags_byte flags in
  (* data offset 5; window 65535; checksum word 8; urgent pointer 0 *)
  build ~ts ~src ~dst ~proto:proto_tcp ~ttl ~ident ~flags ~csum_at:8
    [| src_port; dst_port; seq lsr 16; seq land 0xFFFF; ack lsr 16; ack land 0xFFFF;
       0x5000 lor flags; 0xFFFF; 0; 0 |]
    payload

let build_udp ~ts ~src ~dst ~src_port ~dst_port ?(ttl = 64) ?(ident = 0) payload =
  build ~ts ~src ~dst ~proto:proto_udp ~ttl ~ident ~flags:0 ~csum_at:3
    [| src_port; dst_port; 8 + String.length payload; 0 |]
    payload

(* ------------------------------------------------------------------ *)
(* Decoding: every check the layered decoders made, in their order and
   with their detail strings, read where the bytes sit. *)

(* The pseudo-header of the datagram whose IPv4 header is at [ip]. *)
let pseudo base ip proto len =
  Checksum.pseudo_header ~src:(get32 base (ip + 12)) ~dst:(get32 base (ip + 16)) ~proto ~len

let view ~ts base ~ip ~l4 ~proto ~flags payload_off payload_len =
  Ok { ts; base; ip_off = ip; l4_off = l4; payload_off; payload_len; proto; flags }

let decode ~ts s ~off =
  let n = Slice.length s in
  if off < 0 || off > n then invalid_arg "Packet.decode: offset out of range";
  let base = Slice.base s and ip = Slice.offset s + off and len = n - off in
  if len = 0 then Error (Ipv4_header "truncated")
  else
    let vi = get8 base ip in
    let ihl = (vi land 0xF) * 4 in
    if vi lsr 4 <> 4 then Error (Ipv4_header "not IPv4")
    else if ihl < 20 then Error (Ipv4_header "bad IHL")
    else if len < ihl then Error (Ipv4_header "truncated header")
    else
      let total = get16 base (ip + 2) in
      if total < ihl || total > len then Error (Ipv4_header "bad total length")
      else if Checksum.ones_complement_sub 0 base ~off:ip ~len:ihl <> 0 then
        Error (Ipv4_header "bad header checksum")
      else
        let proto = get8 base (ip + 9) in
        let l4 = ip + ihl and l4_len = total - ihl in
        if proto = proto_tcp then
          if l4_len < 20 then Error (Tcp_segment "short segment")
          else
            let doff = (get8 base (l4 + 12) lsr 4) * 4 in
            if doff < 20 || doff > l4_len then Error (Tcp_segment "bad data offset")
            else if
              Checksum.ones_complement_sub (pseudo base ip proto l4_len) base ~off:l4 ~len:l4_len
              <> 0
            then Error (Tcp_segment "bad checksum")
            else
              view ~ts base ~ip ~l4 ~proto ~flags:(get8 base (l4 + 13)) (l4 + doff) (l4_len - doff)
        else if proto = proto_udp then
          if l4_len < 8 then Error (Udp_datagram "short datagram")
          else
            let ulen = get16 base (l4 + 4) in
            if ulen < 8 || ulen > l4_len then Error (Udp_datagram "bad length")
            else if
              (* a zero checksum field means "not computed" *)
              get16 base (l4 + 6) <> 0
              && Checksum.ones_complement_sub (pseudo base ip proto ulen) base ~off:l4 ~len:ulen
                 <> 0
            then Error (Udp_datagram "bad checksum")
            else view ~ts base ~ip ~l4 ~proto ~flags:0 (l4 + 8) (ulen - 8)
        else view ~ts base ~ip ~l4 ~proto ~flags:0 l4 l4_len

(* ------------------------------------------------------------------ *)
(* Reading *)

let to_bytes t =
  let total = get16 t.base (t.ip_off + 2) in
  if t.ip_off = 0 && total = String.length t.base then t.base
  else String.sub t.base t.ip_off total

let src t = Ipaddr.of_int (get32 t.base (t.ip_off + 12))
let dst t = Ipaddr.of_int (get32 t.base (t.ip_off + 16))
let proto t = t.proto
let is_tcp t = t.proto = proto_tcp
let is_udp t = t.proto = proto_udp

let ports t =
  if is_tcp t || is_udp t then Some (get16 t.base t.l4_off, get16 t.base (t.l4_off + 2))
  else None

let seq t = if is_tcp t then get32 t.base (t.l4_off + 4) else 0
let payload_length t = t.payload_len
let payload t = Slice.of_sub t.base ~off:t.payload_off ~len:t.payload_len
let payload_string t = String.sub t.base t.payload_off t.payload_len
