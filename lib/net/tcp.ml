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

(* Every combination of the six flags, built once at module
   initialisation: decoding a segment shares one (flags are immutable)
   instead of allocating a record.  ECE and CWR (bits 6 and 7) are not
   modelled. *)
let flags_table =
  Array.init 64 (fun b ->
      {
        fin = b land 1 <> 0;
        syn = b land 2 <> 0;
        rst = b land 4 <> 0;
        psh = b land 8 <> 0;
        ack = b land 16 <> 0;
        urg = b land 32 <> 0;
      })

let flags_of_byte b = Array.unsafe_get flags_table (b land 63)

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
  let len = String.length seg in
  let pseudo = Checksum.pseudo_header ~src ~dst ~proto:Ipv4.proto_tcp ~len in
  Byte_io.Writer.patch_u16_be w 16 (Checksum.ones_complement pseudo (Slice.of_string seg));
  Byte_io.Writer.contents w

let decode ~src ~dst s =
  let len = Slice.length s in
  if len < 20 then Error "short segment"
  else
    let off = Slice.get_u8 s 12 lsr 4 * 4 in
    if off < 20 || off > len then Error "bad data offset"
    else
      let pseudo = Checksum.pseudo_header ~src ~dst ~proto:Ipv4.proto_tcp ~len in
      if Checksum.ones_complement pseudo s <> 0 then Error "bad checksum"
      else
        Ok
          {
            src_port = Slice.get_u16_be s 0;
            dst_port = Slice.get_u16_be s 2;
            seq = Slice.get_u32_be s 4;
            ack_no = Slice.get_u32_be s 8;
            flags = flags_of_byte (Slice.get_u8 s 13);
            window = Slice.get_u16_be s 14;
            payload = Slice.sub s ~off ~len:(len - off);
          }
