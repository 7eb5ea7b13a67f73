module Scratch = Provkit_util.Scratch

type t = Tf_idf | Bm25 of { k1 : float; b : float }

let default_bm25 = Bm25 { k1 = 1.2; b = 0.75 }

let idf index term =
  let n = Inverted_index.document_count index in
  if n = 0 then 0.0
  else begin
    let df = float_of_int (Inverted_index.document_frequency index term) in
    log (1.0 +. ((float_of_int n -. df +. 0.5) /. (df +. 0.5)))
  end

(* [avg] is [max 1.0 (Inverted_index.average_length index)], taken once
   per query. *)
let[@inline] tf_weight scorer index ~avg ~doc tf =
  let tf = float_of_int tf in
  match scorer with
  | Tf_idf -> if tf > 0.0 then 1.0 +. log tf else 0.0
  | Bm25 { k1; b } ->
    let len = float_of_int (Inverted_index.document_length index doc) in
    tf *. (k1 +. 1.0) /. (tf +. (k1 *. (1.0 -. b +. (b *. len /. avg))))

let score_document scorer index ~terms =
  let avg = max 1.0 (Inverted_index.average_length index) in
  let per_term =
    Array.of_list
      (List.map (fun term -> (Inverted_index.term_frequency index ~term, idf index term)) terms)
  in
  fun ~doc ->
    let acc = ref 0.0 in
    for i = 0 to Array.length per_term - 1 do
      let tf_of, idf = per_term.(i) in
      let tf = tf_of ~doc in
      if tf <> 0 then acc := !acc +. (idf *. tf_weight scorer index ~avg ~doc tf)
    done;
    !acc

(* Adds [w] to [doc]'s sum, making the doc a member the first time. *)
let[@inline] bump docs sum doc w =
  if Scratch.mem docs doc then sum.(doc) <- sum.(doc) +. w
  else begin
    Scratch.add docs doc;
    sum.(doc) <- 0.0 +. w
  end

let scores ?limit scorer index ~terms =
  Scratch.with_ ~bound:(Inverted_index.bound index) @@ fun docs ->
  let sum = Scratch.floats docs 0 in
  let avg = max 1.0 (Inverted_index.average_length index) in
  (* Distinct query terms in ascending order, each summed into every doc
     it posts to; a term repeated in the query is boosted by its count. *)
  let rec sum_terms = function
    | [] -> ()
    | term :: rest ->
      let rec run n = function
        | next :: rest when String.equal next term -> run (n + 1) rest
        | rest -> (n, rest)
      in
      let qtf, rest = run 1 rest in
      let weight = idf index term *. float_of_int qtf in
      if weight > 0.0 then begin
        let p = Inverted_index.postings index term in
        for i = 0 to p.Inverted_index.len - 1 do
          let doc = p.Inverted_index.docs.(i) in
          bump docs sum doc (weight *. tf_weight scorer index ~avg ~doc p.Inverted_index.tfs.(i))
        done
      end;
      sum_terms rest
  in
  sum_terms (List.sort String.compare terms);
  let n = Scratch.top docs sum (match limit with None -> docs.Scratch.count | Some k -> k) in
  List.init n (fun i ->
      let doc = docs.Scratch.heap.(i) in
      (doc, sum.(doc)))
