type t = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  proto : int;
  ttl : int;
  ident : int;
  payload : Slice.t;
}

let proto_tcp = 6
let proto_udp = 17

let encode t =
  let w = Byte_io.Writer.create ~capacity:(20 + Slice.length t.payload) () in
  let total_len = 20 + Slice.length t.payload in
  if total_len > 0xFFFF then invalid_arg "Ipv4.encode: datagram too large";
  Byte_io.Writer.u8 w 0x45;
  (* version 4, IHL 5 *)
  Byte_io.Writer.u8 w 0;
  Byte_io.Writer.u16_be w total_len;
  Byte_io.Writer.u16_be w t.ident;
  Byte_io.Writer.u16_be w 0x4000;
  (* don't fragment *)
  Byte_io.Writer.u8 w t.ttl;
  Byte_io.Writer.u8 w t.proto;
  Byte_io.Writer.u16_be w 0;
  (* checksum placeholder *)
  Byte_io.Writer.u32_be w (Ipaddr.to_int32 t.src);
  Byte_io.Writer.u32_be w (Ipaddr.to_int32 t.dst);
  let csum = Checksum.ones_complement 0 (Slice.of_string (Byte_io.Writer.contents w)) in
  Byte_io.Writer.patch_u16_be w 10 csum;
  Byte_io.Writer.slice w t.payload;
  Byte_io.Writer.contents w

let decode s =
  (* fixed fields by offset: once [ihl >= 20] bytes are known present,
     every read below is in range *)
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
      else if Checksum.ones_complement_sub 0 s ~off:0 ~len:ihl <> 0 then
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
