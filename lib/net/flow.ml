type key = {
  src : Ipaddr.t;
  dst : Ipaddr.t;
  src_port : int;
  dst_port : int;
  proto : int;
}

let key_of_packet p =
  match Packet.ports p with
  | None -> None
  | Some (src_port, dst_port) ->
      Some
        {
          src = Packet.src p;
          dst = Packet.dst p;
          src_port;
          dst_port;
          proto = Packet.proto p;
        }

let key_to_string k =
  Printf.sprintf "%s:%d>%s:%d/%d" (Ipaddr.to_string k.src) k.src_port
    (Ipaddr.to_string k.dst) k.dst_port k.proto

type flow_state = {
  base_seq : int;
  mutable segments : (int * string) list;  (* offset-sorted, disjoint *)
  mutable contiguous : int;  (* length of the contiguous prefix *)
  mutable last_use : int;
}

type reassembler = {
  flows : (key, flow_state) Hashtbl.t;
  max_flows : int;
  max_stream : int;
  mutable clock : int;
}

let create_reassembler ?(max_flows = 4096) ?(max_stream = 1 lsl 20) () =
  { flows = Hashtbl.create 256; max_flows; max_stream; clock = 0 }

let evict_oldest t =
  let oldest = ref None in
  Hashtbl.iter
    (fun k st ->
      match !oldest with
      | None -> oldest := Some (k, st.last_use)
      | Some (_, lu) -> if st.last_use < lu then oldest := Some (k, st.last_use))
    t.flows;
  match !oldest with Some (k, _) -> Hashtbl.remove t.flows k | None -> ()

(* Insert a segment, keeping the list sorted and dropping overlap with
   existing data (first writer wins). *)
let insert_segment st off (data : Slice.t) =
  let len = Slice.length data in
  if len = 0 then false
  else begin
    let covers o l (o', l') = o' >= o && o' + l' <= o + l in
    let existing = st.segments in
    if List.exists (fun (o', d') -> covers o' (String.length d') (off, len)) existing
    then false
    else begin
      (* materialize only segments we keep: flow state is long-lived and
         must not pin whole capture buffers through a payload view *)
      st.segments <-
        List.merge (fun (a, _) (b, _) -> compare a b) existing
          [ (off, Slice.to_string data) ];
      (* recompute the contiguous prefix *)
      let rec extend reach = function
        | [] -> reach
        | (o, d) :: tl ->
            if o > reach then reach
            else extend (max reach (o + String.length d)) tl
      in
      let c = extend 0 st.segments in
      let grew = c > st.contiguous in
      st.contiguous <- c;
      grew
    end
  end

let assemble st =
  let buf = Bytes.make st.contiguous '\000' in
  List.iter
    (fun (o, d) ->
      if o < st.contiguous then begin
        let n = min (String.length d) (st.contiguous - o) in
        Bytes.blit_string d 0 buf o n
      end)
    st.segments;
  Bytes.to_string buf

let push t p =
  if not (Packet.is_tcp p) || Packet.payload_length p = 0 then None
  else
    match key_of_packet p with
    | None -> None
    | Some k ->
        let seq = Packet.seq p in
        t.clock <- t.clock + 1;
        let st =
          match Hashtbl.find_opt t.flows k with
          | Some st -> st
          | None ->
              if Hashtbl.length t.flows >= t.max_flows then evict_oldest t;
              let st = { base_seq = seq; segments = []; contiguous = 0; last_use = t.clock } in
              Hashtbl.add t.flows k st;
              st
        in
        st.last_use <- t.clock;
        (* the signed 32-bit difference from the flow's first sequence
           number, so a stream keeps its order across the wrap at 2^32 *)
        let off = ((seq - st.base_seq + 0x8000_0000) land 0xFFFF_FFFF) - 0x8000_0000 in
        if off < 0 || off + Packet.payload_length p > t.max_stream then None
        else if insert_segment st off (Packet.payload p) then Some (assemble st)
        else None

let flow_count t = Hashtbl.length t.flows
