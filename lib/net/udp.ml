type t = { src_port : int; dst_port : int; payload : Slice.t }

let encode ~src ~dst t =
  let len = 8 + Slice.length t.payload in
  let w = Byte_io.Writer.create ~capacity:len () in
  Byte_io.Writer.u16_be w t.src_port;
  Byte_io.Writer.u16_be w t.dst_port;
  Byte_io.Writer.u16_be w len;
  Byte_io.Writer.u16_be w 0;
  Byte_io.Writer.slice w t.payload;
  let pseudo = Checksum.pseudo_header ~src ~dst ~proto:Ipv4.proto_udp ~len in
  let csum =
    Checksum.ones_complement pseudo (Slice.of_string (Byte_io.Writer.contents w))
  in
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
           (Checksum.pseudo_header ~src ~dst ~proto:Ipv4.proto_udp ~len)
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
