type flags = { syn : bool; ack : bool; fin : bool; rst : bool; psh : bool; urg : bool }

let flags_none = { syn = false; ack = false; fin = false; rst = false; psh = false; urg = false }
let flags_syn = { flags_none with syn = true }
let flags_ack = { flags_none with ack = true }
let flags_pshack = { flags_none with psh = true; ack = true }

type t = {
  src_port : int;
  dst_port : int;
  seq : int32;
  ack_no : int32;
  flags : flags;
  window : int;
  payload : Slice.t;
}

let flags_byte f =
  (if f.fin then 1 else 0)
  lor (if f.syn then 2 else 0)
  lor (if f.rst then 4 else 0)
  lor (if f.psh then 8 else 0)
  lor (if f.ack then 16 else 0)
  lor if f.urg then 32 else 0

let flags_of_byte b =
  {
    fin = b land 1 <> 0;
    syn = b land 2 <> 0;
    rst = b land 4 <> 0;
    psh = b land 8 <> 0;
    ack = b land 16 <> 0;
    urg = b land 32 <> 0;
  }

let pseudo_header ~src ~dst ~len =
  let w = Byte_io.Writer.create ~capacity:12 () in
  Byte_io.Writer.u32_be w (Ipaddr.to_int32 src);
  Byte_io.Writer.u32_be w (Ipaddr.to_int32 dst);
  Byte_io.Writer.u8 w 0;
  Byte_io.Writer.u8 w Ipv4.proto_tcp;
  Byte_io.Writer.u16_be w len;
  Byte_io.Writer.contents w

let encode ~src ~dst t =
  let w = Byte_io.Writer.create ~capacity:(20 + Slice.length t.payload) () in
  Byte_io.Writer.u16_be w t.src_port;
  Byte_io.Writer.u16_be w t.dst_port;
  Byte_io.Writer.u32_be w t.seq;
  Byte_io.Writer.u32_be w t.ack_no;
  Byte_io.Writer.u8 w 0x50;
  (* data offset 5 *)
  Byte_io.Writer.u8 w (flags_byte t.flags);
  Byte_io.Writer.u16_be w t.window;
  Byte_io.Writer.u16_be w 0;
  (* checksum placeholder *)
  Byte_io.Writer.u16_be w 0;
  (* urgent pointer *)
  Byte_io.Writer.slice w t.payload;
  let seg = Byte_io.Writer.contents w in
  let csum =
    Checksum.ones_complement_list
      [ pseudo_header ~src ~dst ~len:(String.length seg); seg ]
  in
  Byte_io.Writer.patch_u16_be w 16 csum;
  Byte_io.Writer.contents w

let decode ~src ~dst s =
  let open Byte_io in
  try
    if Slice.length s < 20 then Error "short segment"
    else begin
      let r = Reader.of_slice s in
      let src_port = Reader.u16_be r in
      let dst_port = Reader.u16_be r in
      let seq = Reader.u32_be r in
      let ack_no = Reader.u32_be r in
      let off = Reader.u8 r lsr 4 * 4 in
      let flags = flags_of_byte (Reader.u8 r) in
      let window = Reader.u16_be r in
      let _csum = Reader.u16_be r in
      let _urg = Reader.u16_be r in
      if off < 20 || off > Slice.length s then Error "bad data offset"
      else begin
        let sum =
          Checksum.ones_complement_slices
            [ Slice.of_string (pseudo_header ~src ~dst ~len:(Slice.length s)); s ]
        in
        if sum <> 0 then Error "bad checksum"
        else begin
          let payload = Slice.sub s ~off ~len:(Slice.length s - off) in
          Ok { src_port; dst_port; seq; ack_no; flags; window; payload }
        end
      end
    end
  with Truncated _ -> Error "truncated"
