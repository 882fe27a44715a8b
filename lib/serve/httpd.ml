(* A deliberately tiny blocking HTTP/1.0 responder.

   One accept loop on one listening socket (Unix-domain or TCP), one
   connection at a time, one request per connection, close after the
   response.  That is all a Prometheus scrape or a control command
   needs, and it keeps the attack surface of a sensor's admin port as
   small as it can be: no keep-alive, no chunking, bounded request
   size, and a per-connection read/write deadline so one stalled
   client (a slowloris that connects and never sends, or never reads
   the response) cannot wedge the single-threaded accept loop and
   starve every scrape and control command behind it.

   Requests may carry a body (bounded by [max_body]) when the client
   sends [Content-Length] — that is how cluster sensors POST snapshot
   deltas to the aggregator.  Only the request line and that one
   header are interpreted.

   The loop runs in a sys-thread of the daemon's domain, so handlers
   share the runtime lock with the serve loop — handler code can read
   the daemon's registries without cross-domain races. *)

type listen = Unix_socket of string | Tcp of int

type request = { verb : string; path : string; body : string }
type response = { status : int; body : string; content_type : string }

let ok ?(content_type = "text/plain; version=0.0.4; charset=utf-8") body =
  { status = 200; body; content_type }

let error status body = { status; body; content_type = "text/plain" }

let reason_phrase = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 409 -> "Conflict"
  | 413 -> "Payload Too Large"
  | 503 -> "Service Unavailable"
  | _ -> "Internal Server Error"

let max_request = 4096
let max_body = 1 lsl 20

type t = {
  sock : Unix.file_descr;
  thread : Thread.t;
  stopping : bool Atomic.t;
  address : string;
}

let address t = t.address

(* Both SO_RCVTIMEO and SO_SNDTIMEO, best-effort: a socket kind that
   rejects them (shouldn't happen for AF_UNIX/AF_INET on any platform
   we run on) just keeps blocking semantics. *)
let set_deadline fd seconds =
  if seconds > 0.0 then begin
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO seconds
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    try Unix.setsockopt_float fd Unix.SO_SNDTIMEO seconds
    with Unix.Unix_error _ | Invalid_argument _ -> ()
  end

(* A read past SO_RCVTIMEO surfaces as EAGAIN/EWOULDBLOCK. *)
let timeout_errno = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT -> true
  | _ -> false

type read_outcome = Request of request | Malformed | Too_large | Timed_out

(* Where the body starts: just past the first blank line of
   [s.[0 .. stop)], CRLF or bare LF, whichever ends first. *)
let header_end ?stop s =
  match (Search.find ?stop ~needle:"\r\n\r\n" s, Search.find ?stop ~needle:"\n\n" s) with
  | Some i, Some j -> Some (min (i + 4) (j + 2))
  | Some i, None -> Some (i + 4)
  | None, Some j -> Some (j + 2)
  | None, None -> None

(* The one header we interpret.  Header names are case-insensitive. *)
let content_length headers =
  let lines = String.split_on_char '\n' headers in
  List.fold_left
    (fun acc line ->
      match acc with
      | Some _ -> acc
      | None -> (
          match String.index_opt line ':' with
          | None -> None
          | Some i ->
              let key = String.lowercase_ascii (String.trim (String.sub line 0 i)) in
              if key <> "content-length" then None
              else
                int_of_string_opt
                  (String.trim (String.sub line (i + 1) (String.length line - i - 1)))))
    None lines

let read_request fd =
  (* read until the header terminator or the size bound; then, if the
     client declared a body, keep reading until it is complete *)
  let buf = Bytes.create max_request in
  let exception Timeout in
  let rec fill off =
    (* the string view of [buf] is dropped before the next read *)
    match header_end ~stop:off (Bytes.unsafe_to_string buf) with
    | Some body_start -> (off, Some body_start)
    | None when off >= max_request -> (off, None)
    | None -> (
        match Unix.read fd buf off (max_request - off) with
        | 0 -> (off, None)
        | n -> fill (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill off
        | exception Unix.Unix_error (e, _, _) when timeout_errno e -> raise Timeout)
  in
  match fill 0 with
  | exception Timeout -> Timed_out
  | n, body_at -> (
      let text = Bytes.sub_string buf 0 n in
      match body_at with
      | None -> Malformed  (* headers never terminated within the bound *)
      | Some body_start -> (
          let headers = String.sub text 0 body_start in
          match String.index_opt headers '\n' with
          | None -> Malformed
          | Some i -> (
              let line = String.trim (String.sub headers 0 i) in
              match String.split_on_char ' ' line with
              | verb :: path :: _ -> (
                  let already = String.sub text body_start (n - body_start) in
                  match content_length headers with
                  | None | Some 0 ->
                      Request { verb; path; body = "" }
                  | Some len when len < 0 || len > max_body -> Too_large
                  | Some len -> (
                      let body = Buffer.create len in
                      Buffer.add_string body already;
                      let chunk = Bytes.create 4096 in
                      let rec drain () =
                        if Buffer.length body >= len then Ok ()
                        else
                          match Unix.read fd chunk 0 (Bytes.length chunk) with
                          | 0 -> Error Malformed  (* short body *)
                          | m ->
                              Buffer.add_subbytes body chunk 0 m;
                              drain ()
                          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                              drain ()
                          | exception Unix.Unix_error (e, _, _)
                            when timeout_errno e ->
                              Error Timed_out
                      in
                      match drain () with
                      | Error o -> o
                      | Ok () ->
                          Request
                            {
                              verb;
                              path;
                              body = String.sub (Buffer.contents body) 0 len;
                            }))
              | _ -> Malformed)))

let write_response fd { status; body; content_type } =
  let head =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason_phrase status) content_type (String.length body)
  in
  let payload = head ^ body in
  let rec write_all off =
    if off < String.length payload then
      match
        Unix.write_substring fd payload off (String.length payload - off)
      with
      | n -> write_all (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all off
  in
  (try write_all 0 with Unix.Unix_error _ -> ())

let handle_connection ~deadline handler fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      set_deadline fd deadline;
      match read_request fd with
      | Malformed -> write_response fd (error 400 "bad request\n")
      | Too_large -> write_response fd (error 413 "payload too large\n")
      | Timed_out ->
          (* best effort: the peer may be gone or never reading *)
          write_response fd (error 408 "request timeout\n")
      | Request req -> (
          match handler req with
          | resp -> write_response fd resp
          | exception e ->
              write_response fd
                (error 500 (Printf.sprintf "handler: %s\n" (Printexc.to_string e)))))

(* Poll with select so [stop] can take effect: a thread blocked in a
   bare [accept] is NOT woken when another thread closes the listening
   fd, so the loop must come up for air to observe [stopping]. *)
let accept_loop t ~deadline handler =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.sock ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept t.sock with
          | fd, _ -> handle_connection ~deadline handler fd
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | exception Unix.Unix_error _ -> Atomic.set t.stopping true)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error _ ->
          (* the listening socket was closed under us: stop *)
          Atomic.set t.stopping true);
      loop ()
    end
  in
  loop ()

let start ?(deadline = 10.0) listen handler =
  match
    match listen with
    | Unix_socket path ->
        (try if Sys.file_exists path then Sys.remove path
         with Sys_error _ -> ());
        let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind sock (Unix.ADDR_UNIX path);
        Ok (sock, path)
    | Tcp port ->
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Ok (sock, Printf.sprintf "127.0.0.1:%d" port)
  with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "listen: %s" (Unix.error_message e))
  | Error _ as e -> e
  | Ok (sock, address) ->
      Unix.listen sock 16;
      let t = { sock; thread = Thread.self (); stopping = Atomic.make false; address } in
      let thread = Thread.create (fun () -> accept_loop t ~deadline handler) () in
      Ok { t with thread }

let stop t =
  Atomic.set t.stopping true;
  (* the loop notices within one select interval; close only after the
     join so the fd number cannot be reused under a racing accept *)
  Thread.join t.thread;
  (try Unix.close t.sock with Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* The matching one-shot client, used by `sanids ctl` and the cluster
   sensor's delta shipping: connect, send one HTTP/1.0 request
   (optionally with a body), return (status, body).

   Connect retries run on the shared {!Backoff} policy — the same
   tested schedule the sensor uses between delta attempts — so "absorb
   a daemon start-up race" and "survive an aggregator restart" are one
   code path. *)

let connect_with_retry ?(backoff = Backoff.default) addr ~deadline =
  let seed = Int64.of_int (Hashtbl.hash addr) in
  Backoff.retry backoff ~seed ~deadline (fun ~attempt:_ ->
      let sock =
        match addr with
        | Unix.ADDR_UNIX _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
        | Unix.ADDR_INET _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0
      in
      match Unix.connect sock addr with
      | () -> Ok sock
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          Error (Printf.sprintf "connect: %s" (Unix.error_message e)))

let request ?(timeout = 10.0) ?backoff ?read_timeout ?body listen ~verb ~path
    () =
  let addr =
    match listen with
    | Unix_socket p -> Unix.ADDR_UNIX p
    | Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
  in
  let deadline = Unix.gettimeofday () +. timeout in
  match connect_with_retry ?backoff addr ~deadline with
  | Error _ as e -> e
  | Ok sock ->
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          (* blocking control commands (reload/drain) legitimately hold
             the response open, so reads stay un-deadlined unless the
             caller opts in — the sensor does, a human ctl does not *)
          (match read_timeout with
          | Some s -> set_deadline sock s
          | None -> ());
          let req =
            match body with
            | None -> Printf.sprintf "%s %s HTTP/1.0\r\n\r\n" verb path
            | Some b ->
                Printf.sprintf "%s %s HTTP/1.0\r\nContent-Length: %d\r\n\r\n%s"
                  verb path (String.length b) b
          in
          let rec write_all off =
            if off < String.length req then
              write_all (off + Unix.write_substring sock req off (String.length req - off))
          in
          match write_all 0 with
          | exception Unix.Unix_error (e, _, _) ->
              Error (Printf.sprintf "write: %s" (Unix.error_message e))
          | () -> (
              let buf = Buffer.create 1024 in
              let chunk = Bytes.create 4096 in
              let timed_out = ref false in
              let rec drain () =
                match Unix.read sock chunk 0 (Bytes.length chunk) with
                | 0 -> ()
                | n ->
                    Buffer.add_subbytes buf chunk 0 n;
                    drain ()
                | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
                | exception Unix.Unix_error (e, _, _) when timeout_errno e ->
                    timed_out := true
              in
              (try drain () with Unix.Unix_error _ -> ());
              if !timed_out && Buffer.length buf = 0 then
                Error "read: response timed out"
              else
                let text = Buffer.contents buf in
                match String.index_opt text ' ' with
                | None -> Error "malformed response"
                | Some i -> (
                    let rest = String.sub text (i + 1) (String.length text - i - 1) in
                    let code =
                      match String.index_opt rest ' ' with
                      | Some j -> int_of_string_opt (String.sub rest 0 j)
                      | None -> None
                    in
                    let body =
                      match header_end text with
                      | Some p -> String.sub text p (String.length text - p)
                      | None -> ""
                    in
                    match code with
                    | Some c -> Ok (c, body)
                    | None -> Error "malformed status line")))
