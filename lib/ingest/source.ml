(* Follow-mode packet sources for the serving path.

   A source is a pull cursor the serve feeder drains between control
   ticks: [next] yields the next decodable packet, [Idle] when nothing
   is available right now (the daemon's cue to poll controls and
   sleep), or [Eof] when the source can never produce again.  All
   decoding goes through the typed {!Ingest} boundary, so malformed
   input is counted per reason in the supplied metrics, never raised. *)

module Pcap = Sanids_pcap.Pcap

type event = Packet of Packet.t | Idle | Eof

type t = {
  next : unit -> event;
  close : unit -> unit;
  describe : string;
}

let next t = t.next ()
let close t = t.close ()
let describe t = t.describe

(* Records queue up framed but undecoded; {!Ingest.decode_record} runs
   (and its records/errors counters tick) only when the serving path
   actually pulls — so a drain that stops admission mid-queue leaves
   the undispatched records uncounted and the reconciliation identity
   [records = verdicts + errors + shed] exact. *)
let drain_queue ?metrics pending =
  let rec next () =
    match Queue.take_opt pending with
    | None -> None
    | Some (linktype, record) -> (
        match Ingest.decode_record ?metrics ~linktype record with
        | Ok p -> Some p
        | Error _ -> next ()  (* counted; keep going *))
  in
  next

let enqueue_file ?metrics pending data =
  match Ingest.decode_file ?metrics data with
  | Error _ -> ()  (* counted as pcap_framing *)
  | Ok file ->
      List.iter
        (fun r -> Queue.add (file.Pcap.linktype, r) pending)
        file.Pcap.records

let of_pcap_file ?metrics path =
  match File.read path with
  | Error m -> Error m
  | Ok data -> (
      match Ingest.decode_file ?metrics data with
      | Error e -> Error (Printf.sprintf "%s: %s" path (Ingest.error_to_string e))
      | Ok file ->
          let pending = Queue.create () in
          List.iter
            (fun r -> Queue.add (file.Pcap.linktype, r) pending)
            file.Pcap.records;
          let next = drain_queue ?metrics pending in
          Ok
            {
              next =
                (fun () -> match next () with Some p -> Packet p | None -> Eof);
              close = ignore;
              describe = "file:" ^ path;
            })

(* Directory watch: every scan admits the not-yet-seen *.pcap files in
   name order.  Writers must land files atomically (write elsewhere,
   then rename into the spool) — the standard maildir-style contract; a
   file is read exactly once. *)
let directory ?metrics ?(ext = ".pcap") dir =
  let seen = Hashtbl.create 64 in
  let pending = Queue.create () in
  let scan () =
    match Sys.readdir dir with
    | exception Sys_error _ -> ()
    | names ->
        Array.sort compare names;
        Array.iter
          (fun name ->
            if Filename.check_suffix name ext && not (Hashtbl.mem seen name)
            then begin
              Hashtbl.add seen name ();
              match File.read (Filename.concat dir name) with
              | Error _ -> ()
              | Ok data -> enqueue_file ?metrics pending data
            end)
          names
  in
  let next = drain_queue ?metrics pending in
  {
    next =
      (fun () ->
        if Queue.is_empty pending then scan ();
        match next () with Some p -> Packet p | None -> Idle);
    close = ignore;
    describe = "dir:" ^ dir;
  }

(* FIFO follow: a pcap stream framed incrementally as bytes arrive.
   The FIFO is opened read-write so the daemon itself holds a writer
   end — reads then return EAGAIN (Idle) instead of EOF whenever the
   external writers come and go, which is exactly the long-lived-sensor
   contract: the stream ends on drain, not on a writer hiccup. *)
type fifo_state = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;  (* first unparsed byte *)
  mutable len : int;  (* unparsed byte count *)
  mutable skip : int;  (* body bytes of a shed record still to discard *)
  mutable phase : [ `Header | `Records of Pcap.meta | `Dead ];
}

let fifo_chunk = 65536

let fifo_buffered st n = st.len >= n

let fifo_peek st n = Slice.of_string (Bytes.sub_string st.buf st.start n)

let fifo_consume st n =
  st.start <- st.start + n;
  st.len <- st.len - n

let fifo_fill st =
  (* compact, grow if needed, then one non-blocking read; the buffer
     only ever has to hold one admitted record *)
  if st.start > 0 then begin
    Bytes.blit st.buf st.start st.buf 0 st.len;
    st.start <- 0
  end;
  if Bytes.length st.buf - st.len < fifo_chunk then begin
    let bigger = Bytes.create (max (2 * Bytes.length st.buf) (st.len + fifo_chunk)) in
    Bytes.blit st.buf 0 bigger 0 st.len;
    st.buf <- bigger
  end;
  match Unix.read st.fd st.buf st.len fifo_chunk with
  | 0 -> `Closed
  | n ->
      st.len <- st.len + n;
      `Read
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      `Nothing

let count_framing metrics m =
  match metrics with
  | None -> ()
  | Some ms -> Ingest.count_error ms (Ingest.Pcap_framing m)

let fifo ?metrics path =
  match Unix.openfile path [ Unix.O_RDWR; Unix.O_NONBLOCK ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
      let st =
        { fd; buf = Bytes.create fifo_chunk; start = 0; len = 0; skip = 0;
          phase = `Header }
      in
      let rec step () =
        match st.phase with
        | `Dead -> Eof
        | `Header ->
            if fifo_buffered st Pcap.global_header_len then begin
              match
                Pcap.decode_global_header (fifo_peek st Pcap.global_header_len)
              with
              | Ok meta ->
                  fifo_consume st Pcap.global_header_len;
                  st.phase <- `Records meta;
                  step ()
              | Error m ->
                  count_framing metrics m;
                  st.phase <- `Dead;
                  Eof
            end
            else pull ()
        | `Records _ when st.skip > 0 ->
            (* discard a shed record's body as it arrives *)
            let n = min st.skip st.len in
            fifo_consume st n;
            st.skip <- st.skip - n;
            if st.skip > 0 then pull () else step ()
        | `Records meta ->
            if fifo_buffered st Pcap.record_header_len then begin
              match
                Pcap.decode_record_header meta
                  (fifo_peek st Pcap.record_header_len)
              with
              | Error m ->
                  count_framing metrics m;
                  st.phase <- `Dead;
                  Eof
              | Ok rh ->
                  let linktype = meta.Pcap.file_linktype in
                  if not (Ingest.admit ?metrics ~linktype rh.Pcap.incl_len) then begin
                    (* shed and counted at header time, as file mode does *)
                    fifo_consume st Pcap.record_header_len;
                    st.skip <- rh.Pcap.incl_len;
                    step ()
                  end
                  else if fifo_buffered st (Pcap.record_header_len + rh.Pcap.incl_len)
                  then begin
                    fifo_consume st Pcap.record_header_len;
                    let body = fifo_peek st rh.Pcap.incl_len in
                    fifo_consume st rh.Pcap.incl_len;
                    let record =
                      { Pcap.ts = rh.Pcap.r_ts; orig_len = rh.Pcap.r_orig_len; data = body }
                    in
                    match Ingest.decode_record ?metrics ~linktype record with
                    | Ok p -> Packet p
                    | Error _ -> step ()  (* counted; keep framing *)
                  end
                  else pull ()
            end
            else pull ()
      and pull () =
        match fifo_fill st with
        | `Read -> step ()
        | `Nothing -> Idle
        | `Closed ->
            (* regular files reach here at end of data; a true FIFO
               never does (we hold a writer end) *)
            st.phase <- `Dead;
            Eof
      in
      Ok
        {
          next = step;
          close = (fun () -> try Unix.close fd with Unix.Unix_error _ -> ());
          describe = "fifo:" ^ path;
        }

let of_path ?metrics ?ext path =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | st -> (
      match st.Unix.st_kind with
      | Unix.S_DIR -> Ok (directory ?metrics ?ext path)
      | Unix.S_FIFO -> fifo ?metrics path
      | Unix.S_REG -> of_pcap_file ?metrics path
      | Unix.S_CHR | Unix.S_BLK | Unix.S_LNK | Unix.S_SOCK ->
          Error (Printf.sprintf "%s: unsupported source file kind" path))
