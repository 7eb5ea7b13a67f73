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
    List.map (fun term -> (Inverted_index.term_frequency index ~term, idf index term)) terms
  in
  fun ~doc ->
    List.fold_left
      (fun acc (tf_of, idf) ->
        let tf = tf_of ~doc in
        if tf = 0 then acc else acc +. (idf *. tf_weight scorer index ~avg ~doc tf))
      0.0 per_term

(* One query's sums, in arrays indexed by doc id: a doc has a sum iff
   [stamp.(doc) = gen], and the first [count] entries of [touched] list
   those docs.  [heap] holds the top hits while they are picked.  Each
   domain has its own; [scores] calls nothing that could score again on
   the same domain, so a call never finds its scratch in use. *)
type scratch = {
  mutable stamp : int array;
  mutable sum : float array;
  mutable touched : int array;
  mutable heap : int array;
  mutable count : int;
  mutable gen : int;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      { stamp = [||]; sum = [||]; touched = [||]; heap = [||]; count = 0; gen = 0 })

let scratch bound =
  let s = Domain.DLS.get scratch_key in
  let have = Array.length s.stamp in
  if have < bound then begin
    let n = max bound (2 * have) in
    s.stamp <- Array.make n 0;
    s.sum <- Array.make n 0.0;
    s.touched <- Array.make n 0;
    s.heap <- Array.make n 0
  end;
  s.gen <- s.gen + 1;
  s.count <- 0;
  s

(* Adds [w] to [doc]'s sum, recording the doc the first time. *)
let[@inline] bump s ~gen doc w =
  if s.stamp.(doc) = gen then s.sum.(doc) <- s.sum.(doc) +. w
  else begin
    s.stamp.(doc) <- gen;
    s.sum.(doc) <- 0.0 +. w;
    s.touched.(s.count) <- doc;
    s.count <- s.count + 1
  end

(* The [k] touched docs with the highest positive sums, best first, ties
   by ascending doc id.  A binary heap keeps the best [k] so far with the
   one that ranks last at its root. *)
let top s k =
  let h = s.heap and n = ref 0 in
  let after a b =
    let c = Float.compare s.sum.(a) s.sum.(b) in
    c < 0 || (c = 0 && a > b)
  in
  let swap i j =
    let x = h.(i) in
    h.(i) <- h.(j);
    h.(j) <- x
  in
  let rec sift_up i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if after h.(i) h.(parent) then begin
        swap i parent;
        sift_up parent
      end
    end
  in
  let rec sift_down i =
    let l = (2 * i) + 1 in
    if l < !n then begin
      let c = if l + 1 < !n && after h.(l + 1) h.(l) then l + 1 else l in
      if after h.(c) h.(i) then begin
        swap i c;
        sift_down c
      end
    end
  in
  for j = 0 to s.count - 1 do
    let doc = s.touched.(j) in
    if s.sum.(doc) > 0.0 then
      if !n < k then begin
        h.(!n) <- doc;
        incr n;
        sift_up (!n - 1)
      end
      else if !n > 0 && after h.(0) doc then begin
        h.(0) <- doc;
        sift_down 0
      end
  done;
  let hits = ref [] in
  while !n > 0 do
    let doc = h.(0) in
    hits := (doc, s.sum.(doc)) :: !hits;
    decr n;
    h.(0) <- h.(!n);
    sift_down 0
  done;
  !hits

let scores ?limit scorer index ~terms =
  let s = scratch (Inverted_index.bound index) in
  let gen = s.gen in
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
          bump s ~gen doc (weight *. tf_weight scorer index ~avg ~doc p.Inverted_index.tfs.(i))
        done
      end;
      sum_terms rest
  in
  sum_terms (List.sort String.compare terms);
  top s (match limit with None -> s.count | Some k -> k)
