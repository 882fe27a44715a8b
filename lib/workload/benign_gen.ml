type mix = { http : float; smtp : float; dns : float; binary : float }

let default_mix = { http = 0.72; smtp = 0.10; dns = 0.10; binary = 0.08 }

let words =
  [|
    "index"; "images"; "about"; "contact"; "news"; "archive"; "search";
    "static"; "media"; "login"; "account"; "docs"; "report"; "q3"; "draft";
    "main"; "styles"; "script"; "photo"; "data";
  |]

let exts = [| "html"; "css"; "js"; "png"; "jpg"; "pdf"; "txt"; "xml" |]

let hosts = [| "www.example.com"; "mail.campus.edu"; "files.dept.edu"; "news.portal.net" |]

let agents =
  [|
    "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.1)";
    "Mozilla/5.0 (X11; U; Linux i686) Gecko/20060124";
    "Wget/1.10.2"; "Opera/8.54";
  |]

let path rng =
  let depth = 1 + Rng.int rng 3 in
  let parts = List.init depth (fun _ -> Rng.pick rng words) in
  "/" ^ String.concat "/" parts ^ "." ^ Rng.pick rng exts

let sentence rng =
  let n = 4 + Rng.int rng 10 in
  String.concat " " (List.init n (fun _ -> Rng.pick rng words))

let http_payload rng =
  if Rng.chance rng 0.7 then
    Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nUser-Agent: %s\r\nAccept: */*\r\nConnection: keep-alive\r\n\r\n"
      (path rng) (Rng.pick rng hosts) (Rng.pick rng agents)
  else begin
    let body = Printf.sprintf "user=%s&comment=%s" (Rng.pick rng words) (sentence rng) in
    Printf.sprintf "POST /%s/submit HTTP/1.1\r\nHost: %s\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: %d\r\n\r\n%s"
      (Rng.pick rng words) (Rng.pick rng hosts) (String.length body) body
  end

let smtp_payload rng =
  match Rng.int rng 4 with
  | 0 -> Printf.sprintf "EHLO %s\r\n" (Rng.pick rng hosts)
  | 1 -> Printf.sprintf "MAIL FROM:<%s@%s>\r\n" (Rng.pick rng words) (Rng.pick rng hosts)
  | 2 -> Printf.sprintf "RCPT TO:<%s@%s>\r\n" (Rng.pick rng words) (Rng.pick rng hosts)
  | _ ->
      Printf.sprintf "Subject: %s\r\n\r\n%s\r\n%s\r\n.\r\n" (sentence rng) (sentence rng)
        (sentence rng)

(* A DNS query message: header + one QNAME question. *)
let dns_payload rng =
  let w = Byte_io.Writer.create ~capacity:48 () in
  Byte_io.Writer.u16_be w (Rng.int rng 0x10000);
  (* id *)
  Byte_io.Writer.u16_be w 0x0100;
  (* RD *)
  Byte_io.Writer.u16_be w 1;
  Byte_io.Writer.u16_be w 0;
  Byte_io.Writer.u16_be w 0;
  Byte_io.Writer.u16_be w 0;
  let name = Rng.pick rng words in
  Byte_io.Writer.u8 w (String.length name);
  Byte_io.Writer.string w name;
  Byte_io.Writer.u8 w 3;
  Byte_io.Writer.string w "edu";
  Byte_io.Writer.u8 w 0;
  Byte_io.Writer.u16_be w 1;
  (* A *)
  Byte_io.Writer.u16_be w 1;
  (* IN *)
  Byte_io.Writer.contents w

(* High-entropy media-like data: exercises the binary extractor without
   containing meaningful code behaviour. *)
let binary_payload rng =
  let n = 200 + Rng.int rng 800 in
  let magic = Rng.pick rng [| "\x89PNG\r\n"; "\xff\xd8\xff\xe0"; "PK\x03\x04"; "\x1f\x8b\x08" |] in
  magic ^ Rng.bytes rng n

let payload ?(mix = default_mix) rng =
  let x = Rng.float rng (mix.http +. mix.smtp +. mix.dns +. mix.binary) in
  if x < mix.http then http_payload rng
  else if x < mix.http +. mix.smtp then smtp_payload rng
  else if x < mix.http +. mix.smtp +. mix.dns then dns_payload rng
  else binary_payload rng

let pick_addr rng p =
  let size = min (Ipaddr.prefix_size p) (1 lsl 16) in
  Ipaddr.nth p (Rng.int rng size)

let packet ?(mix = default_mix) rng ~ts ~clients ~servers =
  let src = pick_addr rng clients in
  let dst = pick_addr rng servers in
  let x = Rng.float rng (mix.http +. mix.smtp +. mix.dns +. mix.binary) in
  if x < mix.http then
    Packet.build_tcp ~ts ~src ~dst ~src_port:(1024 + Rng.int rng 60000) ~dst_port:80
      (http_payload rng)
  else if x < mix.http +. mix.smtp then
    Packet.build_tcp ~ts ~src ~dst ~src_port:(1024 + Rng.int rng 60000) ~dst_port:25
      (smtp_payload rng)
  else if x < mix.http +. mix.smtp +. mix.dns then
    Packet.build_udp ~ts ~src ~dst ~src_port:(1024 + Rng.int rng 60000) ~dst_port:53
      (dns_payload rng)
  else
    Packet.build_tcp ~ts ~src ~dst ~src_port:(1024 + Rng.int rng 60000) ~dst_port:80
      (binary_payload rng)

let seq ?mix ?(rate = 1000.0) rng ~n ~t0 ~clients ~servers =
  let rec gen i ts () =
    if i >= n then Seq.Nil
    else begin
      let dt = -.log (1.0 -. Rng.float rng 0.999999) /. rate in
      let ts = ts +. dt in
      Seq.Cons (packet ?mix rng ~ts ~clients ~servers, gen (i + 1) ts)
    end
  in
  gen 0 t0

let packets ?mix ?rate rng ~n ~t0 ~clients ~servers =
  List.of_seq (seq ?mix ?rate rng ~n ~t0 ~clients ~servers)
