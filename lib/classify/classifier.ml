module Obs = Sanids_obs

type reason = Honeypot_sender | Scanner | Classification_disabled
type verdict = Suspicious of reason | Benign

type meters = {
  benign : Obs.Registry.counter;
  honeypot_sender : Obs.Registry.counter;
  scanner : Obs.Registry.counter;
  forced : Obs.Registry.counter;  (* classification disabled *)
}

type t = {
  honeypot : Honeypot.t;
  scan : Scan_detector.t;
  enabled : bool;
  meters : meters option;
}

let meters_of reg =
  {
    benign =
      Obs.Registry.counter reg ~help:"packets classified benign"
        "sanids_classify_benign_total";
    honeypot_sender =
      Obs.Registry.counter reg ~help:"packets from honeypot-touching sources"
        "sanids_classify_honeypot_total";
    scanner =
      Obs.Registry.counter reg ~help:"packets from scanning sources"
        "sanids_classify_scanner_total";
    forced =
      Obs.Registry.counter reg
        ~help:"packets forced suspicious (classification disabled)"
        "sanids_classify_forced_total";
  }

let create ?metrics ?(honeypots = []) ?(unused = []) ?(scan_threshold = 5)
    ?(enabled = true) () =
  {
    honeypot = Honeypot.create honeypots;
    scan = Scan_detector.create ~threshold:scan_threshold unused;
    enabled;
    meters = Option.map meters_of metrics;
  }

let record t verdict =
  match t.meters with
  | None -> ()
  | Some m ->
      Obs.Registry.incr
        (match verdict with
        | Benign -> m.benign
        | Suspicious Honeypot_sender -> m.honeypot_sender
        | Suspicious Scanner -> m.scanner
        | Suspicious Classification_disabled -> m.forced)

let classify t p =
  let src = Packet.src p and dst = Packet.dst p in
  (* state updates happen regardless, so a later re-enable sees history *)
  let marked = Honeypot.observe t.honeypot ~src ~dst in
  let scanning = Scan_detector.observe t.scan ~src ~dst in
  let verdict =
    if not t.enabled then Suspicious Classification_disabled
    else if marked then Suspicious Honeypot_sender
    else if scanning then Suspicious Scanner
    else Benign
  in
  record t verdict;
  verdict

let reason_to_string = function
  | Honeypot_sender -> "honeypot-sender"
  | Scanner -> "scanner"
  | Classification_disabled -> "classification-disabled"

let honeypot t = t.honeypot
