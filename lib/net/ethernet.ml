type mac = string (* 6 raw bytes *)

let mac_of_string_opt s =
  match String.split_on_char ':' s with
  | [ _; _; _; _; _; _ ] as parts ->
      let octet x =
        (* reject int_of_string's sign/space liberties: exactly 2 hex digits *)
        if String.length x = 2 then
          match int_of_string_opt ("0x" ^ x) with
          | Some v when v >= 0 && v <= 255 -> Some (Char.chr v)
          | Some _ | None -> None
        else None
      in
      let octets = List.filter_map octet parts in
      if List.length octets = 6 then
        Some (String.init 6 (fun i -> List.nth octets i))
      else None
  | _ -> None

let mac_of_string s =
  match mac_of_string_opt s with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Ethernet.mac_of_string: %S (want aa:bb:cc:dd:ee:ff)" s)

let mac_to_string m =
  String.concat ":"
    (List.init 6 (fun i -> Printf.sprintf "%02x" (Char.code m.[i])))

let mac_broadcast = String.make 6 '\xFF'
let mac_equal (a : mac) b = String.equal a b

let ethertype_ipv4 = 0x0800

type t = { dst : mac; src : mac; ethertype : int; payload : Slice.t }

let encode t =
  let w = Byte_io.Writer.create ~capacity:(14 + Slice.length t.payload) () in
  Byte_io.Writer.string w t.dst;
  Byte_io.Writer.string w t.src;
  Byte_io.Writer.u16_be w t.ethertype;
  Byte_io.Writer.slice w t.payload;
  Byte_io.Writer.contents w

let default_src = mac_of_string "02:00:00:00:00:01"
let default_dst = mac_of_string "02:00:00:00:00:02"

let wrap_ipv4 ?(src = default_src) ?(dst = default_dst) datagram =
  encode { dst; src; ethertype = ethertype_ipv4; payload = Slice.of_string datagram }
