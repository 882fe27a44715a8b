type model = { mean : float array; std : float array }

let freq payload =
  let h = Entropy.histogram payload in
  Entropy.normalize h

let train corpus =
  if corpus = [] then invalid_arg "Payl.train: empty corpus";
  let n = float_of_int (List.length corpus) in
  let freqs = List.map freq corpus in
  let mean = Array.make 256 0.0 in
  List.iter (fun f -> Array.iteri (fun i v -> mean.(i) <- mean.(i) +. v) f) freqs;
  Array.iteri (fun i v -> mean.(i) <- v /. n) mean;
  let var = Array.make 256 0.0 in
  List.iter
    (fun f ->
      Array.iteri
        (fun i v ->
          let d = v -. mean.(i) in
          var.(i) <- var.(i) +. (d *. d))
        f)
    freqs;
  let std = Array.map (fun v -> sqrt (v /. n)) var in
  { mean; std }

(* Simplified Mahalanobis distance with a smoothing floor on the standard
   deviation, averaged over the 256 bins. *)
let score m payload =
  if payload = "" then 0.0
  else begin
    let f = freq payload in
    let acc = ref 0.0 in
    for i = 0 to 255 do
      let d = Float.abs (f.(i) -. m.mean.(i)) in
      acc := !acc +. (d /. (m.std.(i) +. 0.001))
    done;
    !acc /. 256.0
  end

let is_anomalous ?(threshold = 1.5) m payload = score m payload > threshold
