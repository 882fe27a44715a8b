type proto = P_tcp | P_udp | P_ip

type content = {
  pattern : string;
  nocase : bool;
  offset : int;
  depth : int option;
}

type t = {
  proto : proto;
  src : Ipaddr.prefix option;
  src_port : int option;
  dst : Ipaddr.prefix option;
  dst_port : int option;
  msg : string;
  contents : content list;
}

(* --- content pattern decoding: text with |hex bytes| sections -------- *)

let decode_pattern s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i in_hex =
    if i >= n then if in_hex then Error "unterminated hex section" else Ok (Buffer.contents buf)
    else if s.[i] = '|' then go (i + 1) (not in_hex)
    else if in_hex then begin
      if s.[i] = ' ' then go (i + 1) true
      else if i + 1 < n then begin
        match int_of_string_opt (Printf.sprintf "0x%c%c" s.[i] s.[i + 1]) with
        | Some b ->
            Buffer.add_char buf (Char.chr b);
            go (i + 2) true
        | None -> Error (Printf.sprintf "bad hex at %d" i)
      end
      else Error "dangling hex digit"
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1) false
    end
  in
  go 0 false

(* --- parsing --------------------------------------------------------- *)

let parse_endpoint_addr tok =
  if tok = "any" then Ok None
  else
    match Ipaddr.prefix_of_string_opt tok with
    | Some p -> Ok (Some p)
    | None -> (
        (* bare address = /32 *)
        match Ipaddr.of_string_opt tok with
        | Some a -> Ok (Some (Ipaddr.prefix a 32))
        | None -> Error (Printf.sprintf "bad address %S" tok))

let parse_port tok =
  if tok = "any" then Ok None
  else
    match int_of_string_opt tok with
    | Some p when p >= 0 && p <= 65535 -> Ok (Some p)
    | Some _ | None -> Error (Printf.sprintf "bad port %S" tok)

(* split "a:b; c:\"x;y\"; nocase;" respecting quotes *)
let split_options s =
  let out = ref [] in
  let buf = Buffer.create 32 in
  let in_quote = ref false in
  String.iter
    (fun c ->
      if c = '"' then begin
        in_quote := not !in_quote;
        Buffer.add_char buf c
      end
      else if c = ';' && not !in_quote then begin
        let piece = String.trim (Buffer.contents buf) in
        if piece <> "" then out := piece :: !out;
        Buffer.clear buf
      end
      else Buffer.add_char buf c)
    s;
  let piece = String.trim (Buffer.contents buf) in
  if piece <> "" then out := piece :: !out;
  List.rev !out

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then Ok (String.sub s 1 (n - 2))
  else Error (Printf.sprintf "expected quoted string, got %S" s)

let ( let* ) = Result.bind

let parse line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then Error "empty"
  else
    match String.index_opt line '(' with
    | None -> Error "missing option block"
    | Some lp ->
        let header = String.trim (String.sub line 0 lp) in
        let rest = String.sub line lp (String.length line - lp) in
        let* opts_text =
          let n = String.length rest in
          if n >= 2 && rest.[0] = '(' && rest.[n - 1] = ')' then
            Ok (String.sub rest 1 (n - 2))
          else Error "unterminated option block"
        in
        let* () = Ok () in
        (match
           String.split_on_char ' ' header |> List.filter (fun s -> s <> "")
         with
        | [ action; proto; src; sport; arrow; dst; dport ] ->
            let* () = if action = "alert" then Ok () else Error "only alert rules supported" in
            let* () = if arrow = "->" then Ok () else Error "expected ->" in
            let* proto =
              match proto with
              | "tcp" -> Ok P_tcp
              | "udp" -> Ok P_udp
              | "ip" -> Ok P_ip
              | p -> Error (Printf.sprintf "unsupported protocol %S" p)
            in
            let* src = parse_endpoint_addr src in
            let* src_port = parse_port sport in
            let* dst = parse_endpoint_addr dst in
            let* dst_port = parse_port dport in
            (* options *)
            let msg = ref "" in
            let contents = ref [] in
            let err = ref None in
            List.iter
              (fun opt ->
                if !err = None then
                  match String.index_opt opt ':' with
                  | None -> (
                      match opt with
                      | "nocase" -> (
                          match !contents with
                          | c :: tl -> contents := { c with nocase = true } :: tl
                          | [] -> err := Some "nocase before any content")
                      | other -> err := Some (Printf.sprintf "unknown option %S" other))
                  | Some colon -> (
                      let key = String.sub opt 0 colon in
                      let value =
                        String.trim (String.sub opt (colon + 1) (String.length opt - colon - 1))
                      in
                      match key with
                      | "msg" -> (
                          match unquote value with
                          | Ok m -> msg := m
                          | Error e -> err := Some e)
                      | "content" -> (
                          match Result.bind (unquote value) decode_pattern with
                          | Ok "" -> err := Some "empty content"
                          | Ok pattern ->
                              contents :=
                                { pattern; nocase = false; offset = 0; depth = None }
                                :: !contents
                          | Error e -> err := Some e)
                      | "offset" -> (
                          match (int_of_string_opt value, !contents) with
                          | Some v, c :: tl when v >= 0 ->
                              contents := { c with offset = v } :: tl
                          | _, [] -> err := Some "offset before any content"
                          | _, _ -> err := Some "bad offset")
                      | "depth" -> (
                          match (int_of_string_opt value, !contents) with
                          | Some v, c :: tl when v >= 1 ->
                              contents := { c with depth = Some v } :: tl
                          | _, [] -> err := Some "depth before any content"
                          | _, _ -> err := Some "bad depth")
                      | other -> err := Some (Printf.sprintf "unknown option %S" other)))
              (split_options opts_text);
            (match !err with
            | Some e -> Error e
            | None ->
                if !contents = [] then Error "rule has no content"
                else
                  Ok
                    {
                      proto;
                      src;
                      src_port;
                      dst;
                      dst_port;
                      msg = (if !msg = "" then "unnamed rule" else !msg);
                      contents = List.rev !contents;
                    })
        | _ -> Error "malformed header")

let parse_many text =
  let rules = ref [] and errors = ref [] in
  List.iteri
    (fun lineno line ->
      let trimmed = String.trim line in
      if trimmed <> "" && trimmed.[0] <> '#' then
        match parse line with
        | Ok r -> rules := r :: !rules
        | Error e -> errors := (lineno + 1, e) :: !errors)
    (String.split_on_char '\n' text);
  (List.rev !rules, List.rev !errors)

(* --- matching --------------------------------------------------------- *)

let content_matches (payload : Slice.t) (c : content) =
  let n = Slice.length payload and m = String.length c.pattern in
  let stop =
    match c.depth with
    | Some d -> min n (c.offset + d)
    | None -> n
  in
  m > 0 && c.offset <= stop
  && Search.find_slice ~nocase:c.nocase ~start:c.offset ~stop ~needle:c.pattern
       payload
     <> None

let header_matches (r : t) p =
  let proto_ok =
    match r.proto with
    | P_ip -> true
    | P_tcp -> Packet.is_tcp p
    | P_udp -> Packet.is_udp p
  in
  let addr_ok prefix addr =
    match prefix with None -> true | Some pre -> Ipaddr.mem addr pre
  in
  let port_ok want actual =
    match (want, actual) with
    | None, _ -> true
    | Some w, Some a -> w = a
    | Some _, None -> false
  in
  let sport, dport =
    match Packet.ports p with
    | Some (s, d) -> (Some s, Some d)
    | None -> (None, None)
  in
  proto_ok
  && addr_ok r.src (Packet.src p)
  && addr_ok r.dst (Packet.dst p)
  && port_ok r.src_port sport
  && port_ok r.dst_port dport

let match_packet rules p =
  let payload = Packet.payload p in
  List.filter_map
    (fun r ->
      if header_matches r p && List.for_all (content_matches payload) r.contents
      then Some r.msg
      else None)
    rules

let match_payload rules payload =
  let payload = Slice.of_string payload in
  List.filter_map
    (fun r ->
      if List.for_all (content_matches payload) r.contents then Some r.msg else None)
    rules

let default_ruleset =
  {rules|# sanids baseline ruleset: 2006-style static signatures
alert tcp any any -> any any (msg:"shellcode push /bin//sh"; content:"|68 2f 2f 73 68 68 2f 62 69 6e|";)
alert tcp any any -> any any (msg:"shellcode /bin/sh string"; content:"/bin/sh";)
alert tcp any any -> any any (msg:"shellcode /bin//sh string"; content:"/bin//sh";)
alert tcp any any -> any any (msg:"overflow filler X run"; content:"XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX";)
alert tcp any any -> any any (msg:"shellcode execve"; content:"|b0 0b cd 80|";)
alert tcp any any -> any any (msg:"shellcode xor-push preamble"; content:"|31 c0 50 68|";)
alert ip any any -> any any (msg:"uniform nop sled"; content:"|90 90 90 90 90 90 90 90 90 90 90 90 90 90 90 90|";)
alert tcp any any -> any 80 (msg:"code red ida overflow"; content:"GET /default.ida?";)
alert tcp any any -> any 80 (msg:"code red unicode vector"; content:"%u9090%u6858%ucbd3%u7801"; nocase;)
alert udp any any -> any 1434 (msg:"sql slammer"; content:"|04|"; offset:0; depth:1; content:"|dc c9 b0 42|";)
|rules}

let default = fst (parse_many default_ruleset)
