let histogram s =
  let h = Array.make 256 0 in
  String.iter (fun c -> h.(Char.code c) <- h.(Char.code c) + 1) s;
  h

let normalize counts =
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Array.make 256 (1.0 /. 256.0)
  else Array.map (fun c -> float_of_int c /. float_of_int total) counts

let chi_square ~observed ~expected =
  if Array.length observed <> 256 || Array.length expected <> 256 then
    invalid_arg "Entropy.chi_square: arrays must have 256 bins";
  let total = float_of_int (Array.fold_left ( + ) 0 observed) in
  let acc = ref 0.0 in
  for i = 0 to 255 do
    if observed.(i) > 0 || expected.(i) > 0.0 then begin
      let e = Float.max (expected.(i) *. total) 1e-6 in
      let d = float_of_int observed.(i) -. e in
      acc := !acc +. (d *. d /. e)
    end
  done;
  !acc
