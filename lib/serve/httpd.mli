(** A minimal blocking HTTP/1.0 responder for the daemon's admin plane.

    One listening socket, one sys-thread, one connection at a time, one
    request per connection — exactly what a Prometheus scrape or a
    {!Serve} control command needs and nothing more.  Because the
    accept loop is a sys-thread of the daemon's own domain, handlers
    run under the shared runtime lock and may read the daemon's
    registries without cross-domain synchronisation.

    Every accepted connection runs under a read/write deadline
    ([SO_RCVTIMEO]/[SO_SNDTIMEO]): a client that connects and stalls —
    never sending a request, or never reading the response — is cut
    off with a 408 instead of wedging the accept loop and starving
    every scrape and control command queued behind it.

    Requests may carry a body (the cluster's snapshot deltas arrive
    this way) when the client declares [Content-Length]; bodies are
    bounded at 1 MiB. *)

type listen = Unix_socket of string | Tcp of int
(** Where to listen: a Unix-domain socket path (removed and rebound on
    start) or a loopback TCP port. *)

type request = { verb : string; path : string; body : string }
(** [body] is [""] unless the client declared a [Content-Length]. *)

type response = { status : int; body : string; content_type : string }

val ok : ?content_type:string -> string -> response
(** 200 with the Prometheus text-format content type by default. *)

val error : int -> string -> response

type t

val start : ?deadline:float -> listen -> (request -> response) -> (t, string) result
(** Bind, listen, and spawn the accept thread.  [deadline] (default 10
    seconds, [<= 0.] disables) bounds each connection's socket reads
    and writes; handler {e compute} time is not bounded — a blocking
    reload or drain may legitimately hold its response open.  Handler
    exceptions become 500 responses; they never kill the loop. *)

val stop : t -> unit
(** Close the listener (waking a blocked [accept]) and join the
    thread.  Idempotent in effect. *)

val address : t -> string
(** Human-readable bound address, for logs. *)

val request :
  ?timeout:float ->
  ?backoff:Backoff.t ->
  ?read_timeout:float ->
  ?body:string ->
  listen ->
  verb:string ->
  path:string ->
  unit ->
  (int * string, string) result
(** One-shot client: connect (retrying on the shared {!Backoff} policy,
    with jitter seeded from the address, until [timeout] seconds from
    now, absorbing daemon start-up races), send a single
    HTTP/1.0 request — with a [Content-Length] body when [body] is
    given — and return [(status, body)].  Reads block indefinitely
    unless [read_timeout] is set: control commands hold their response
    open on purpose, while the cluster sensor bounds every attempt.
    This is what [sanids ctl] and the sensor's delta shipping use. *)
