type record = { ts : float; orig_len : int; data : Slice.t }
type file = { nanos : bool; linktype : int; records : record list }

let linktype_raw = 101
let linktype_ethernet = 1
let magic_usec = 0xA1B2C3D4
let magic_nsec = 0xA1B23C4D

let encode ?(nanos = false) ?(linktype = linktype_raw) records =
  let w = Byte_io.Writer.create ~capacity:4096 () in
  Byte_io.Writer.u32_le_int w (if nanos then magic_nsec else magic_usec);
  Byte_io.Writer.u16_le w 2;
  (* version major *)
  Byte_io.Writer.u16_le w 4;
  (* version minor *)
  Byte_io.Writer.u32_le_int w 0;
  (* thiszone *)
  Byte_io.Writer.u32_le_int w 0;
  (* sigfigs *)
  Byte_io.Writer.u32_le_int w 65535;
  (* snaplen *)
  Byte_io.Writer.u32_le_int w linktype;
  List.iter
    (fun r ->
      let scale = if nanos then 1e9 else 1e6 in
      let secs = int_of_float r.ts in
      let frac = int_of_float (Float.round ((r.ts -. float_of_int secs) *. scale)) in
      let secs, frac =
        let unit = if nanos then 1_000_000_000 else 1_000_000 in
        if frac >= unit then (secs + 1, frac - unit) else (secs, frac)
      in
      Byte_io.Writer.u32_le_int w secs;
      Byte_io.Writer.u32_le_int w frac;
      Byte_io.Writer.u32_le_int w (Slice.length r.data);
      Byte_io.Writer.u32_le_int w r.orig_len;
      Byte_io.Writer.slice w r.data)
    records;
  Byte_io.Writer.contents w

(* One pair of header parsers frames both a whole capture ({!decode})
   and a stream whose bytes arrive in pieces (the follow-mode FIFO
   source). *)

type meta = { le : bool; nanos : bool; file_linktype : int }
type record_header = { r_ts : float; incl_len : int; r_orig_len : int }

let global_header_len = 24
let record_header_len = 16

let u32 le s off = if le then Slice.get_u32_le_int s off else Slice.get_u32_be_int s off

let decode_global_header s =
  if Slice.length s < global_header_len then Error "short global header"
  else
    (* a big-endian writer's magic reads byte-swapped *)
    let magic_le = Slice.get_u32_le_int s 0 and magic_be = Slice.get_u32_be_int s 0 in
    let meta le nanos = Ok { le; nanos; file_linktype = u32 le s 20 } in
    if magic_le = magic_usec then meta true false
    else if magic_le = magic_nsec then meta true true
    else if magic_be = magic_usec then meta false false
    else if magic_be = magic_nsec then meta false true
    else Error "bad magic"

let decode_record_header meta s =
  if Slice.length s < record_header_len then Error "truncated record header"
  else
    let scale = if meta.nanos then 1e9 else 1e6 in
    Ok
      {
        r_ts = float_of_int (u32 meta.le s 0) +. (float_of_int (u32 meta.le s 4) /. scale);
        incl_len = u32 meta.le s 8;
        r_orig_len = u32 meta.le s 12;
      }

let decode s =
  let whole = Slice.of_string s in
  let n = String.length s in
  match decode_global_header whole with
  | Error _ as e -> e
  | Ok meta ->
      let rec records off acc =
        if off = n then
          Ok { nanos = meta.nanos; linktype = meta.file_linktype; records = List.rev acc }
        else
          match decode_record_header meta (Slice.sub whole ~off ~len:(n - off)) with
          | Error _ as e -> e
          | Ok h ->
              let body = off + record_header_len in
              if n - body < h.incl_len then Error "truncated record body"
              else
                let data = Slice.sub whole ~off:body ~len:h.incl_len in
                records (body + h.incl_len)
                  ({ ts = h.r_ts; orig_len = h.r_orig_len; data } :: acc)
      in
      records global_header_len []

let of_packets pkts =
  List.map
    (fun p ->
      let bytes = Packet.to_bytes p in
      { ts = p.Packet.ts; orig_len = String.length bytes; data = Slice.of_string bytes })
    pkts

let of_packets_ethernet pkts =
  List.map
    (fun p ->
      let frame = Ethernet.wrap_ipv4 (Packet.to_bytes p) in
      { ts = p.Packet.ts; orig_len = String.length frame; data = Slice.of_string frame })
    pkts
