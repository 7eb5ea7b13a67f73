module Scratch = Provkit_util.Scratch

let k1 = 1.2
let b = 0.75

let idf index term =
  let n = Inverted_index.document_count index in
  if n = 0 then 0.0
  else begin
    let df = float_of_int (Inverted_index.document_frequency index term) in
    log (1.0 +. ((float_of_int n -. df +. 0.5) /. (df +. 0.5)))
  end

(* BM25's saturating tf weight.  [avg] is
   [max 1.0 (Inverted_index.average_length index)], taken once per
   query. *)
let[@inline] tf_weight index ~avg ~doc tf =
  let tf = float_of_int tf in
  let len = float_of_int (Inverted_index.document_length index doc) in
  tf *. (k1 +. 1.0) /. (tf +. (k1 *. (1.0 -. b +. (b *. len /. avg))))

(* The members are the docs holding a query term, [floats 0] their
   scores. *)
type sums = Scratch.t

(* Adds [w] to [doc]'s sum, making the doc a member the first time. *)
let[@inline] bump docs sum doc w =
  if Scratch.mem docs doc then sum.(doc) <- sum.(doc) +. w
  else begin
    Scratch.add docs doc;
    sum.(doc) <- 0.0 +. w
  end

(* Sums every doc's score into [docs], one pass over the postings. *)
let sum_into index ~terms docs =
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
          bump docs sum doc (weight *. tf_weight index ~avg ~doc p.Inverted_index.tfs.(i))
        done
      end;
      sum_terms rest
  in
  sum_terms (List.sort String.compare terms)

let with_scores index ~terms k =
  Scratch.with_ ~bound:(Inverted_index.bound index) @@ fun docs ->
  sum_into index ~terms docs;
  k docs

let score s doc =
  if doc < Array.length s.Scratch.stamp && Scratch.mem s doc then (Scratch.floats s 0).(doc)
  else 0.0

let top s k =
  let sum = Scratch.floats s 0 in
  let n = Scratch.top s sum k in
  List.init n (fun i ->
      let doc = s.Scratch.heap.(i) in
      (doc, sum.(doc)))

(* [with_scores] with [top] inline, which spares a query the
   continuation's closure. *)
let scores ?limit index ~terms =
  Scratch.with_ ~bound:(Inverted_index.bound index) @@ fun docs ->
  sum_into index ~terms docs;
  top docs (match limit with None -> docs.Scratch.count | Some k -> k)
