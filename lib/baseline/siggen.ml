type t = { tokens : string list; trained_on : int }

let contains hay needle = Search.contains ~needle hay

(* Fraction of the pool containing [tok]. *)
let pool_coverage pool tok =
  let hit = List.length (List.filter (fun p -> contains p tok) pool) in
  float_of_int hit /. float_of_int (List.length pool)

(* Greedy extraction: slide windows of decreasing length over the first
   (reference) sample; a window that covers enough of the pool becomes a
   token and masks its reference region so shorter passes skip it. *)
let infer ?(min_token_len = 8) ?(coverage = 0.9) ?(max_tokens = 8) pool =
  match pool with
  | [] -> invalid_arg "Siggen.infer: empty pool"
  | reference :: _ ->
      let n = String.length reference in
      let masked = Bytes.make n '\x00' in
      let tokens = ref [] in
      let lengths =
        (* longest first, halving down to the minimum *)
        let rec build l acc = if l < min_token_len then acc else build (l / 2) (l :: acc) in
        List.rev (build 256 [])
      in
      List.iter
        (fun len ->
          if List.length !tokens < max_tokens then begin
            let i = ref 0 in
            while !i + len <= n do
              let free =
                let rec check k = k >= len || (Bytes.get masked (!i + k) = '\x00' && check (k + 1)) in
                check 0
              in
              if free && List.length !tokens < max_tokens then begin
                let tok = String.sub reference !i len in
                if pool_coverage pool tok >= coverage then begin
                  tokens := tok :: !tokens;
                  Bytes.fill masked !i len '\x01';
                  i := !i + len
                end
                else i := !i + (max 1 (len / 4))
              end
              else i := !i + (max 1 (len / 4))
            done
          end)
        lengths;
      {
        tokens =
          List.sort (fun a b -> compare (String.length b) (String.length a)) !tokens;
        trained_on = List.length pool;
      }

let matches t payload =
  t.tokens <> [] && List.for_all (contains payload) t.tokens

let specificity t = List.fold_left (fun acc tok -> acc + String.length tok) 0 t.tokens
