type t = Tf_idf | Bm25 of { k1 : float; b : float }

let default_bm25 = Bm25 { k1 = 1.2; b = 0.75 }

let idf index term =
  let n = Inverted_index.document_count index in
  if n = 0 then 0.0
  else begin
    let df = float_of_int (Inverted_index.document_frequency index term) in
    log (1.0 +. ((float_of_int n -. df +. 0.5) /. (df +. 0.5)))
  end

let tf_weight scorer index ~doc tf =
  let tf = float_of_int tf in
  match scorer with
  | Tf_idf -> if tf > 0.0 then 1.0 +. log tf else 0.0
  | Bm25 { k1; b } ->
    let len = float_of_int (Inverted_index.document_length index doc) in
    let avg = max 1.0 (Inverted_index.average_length index) in
    tf *. (k1 +. 1.0) /. (tf +. (k1 *. (1.0 -. b +. (b *. len /. avg))))

let score_document scorer index ~terms =
  let per_term =
    List.map (fun term -> (Inverted_index.term_frequency index ~term, idf index term)) terms
  in
  fun ~doc ->
    List.fold_left
      (fun acc (tf_of, idf) ->
        let tf = tf_of ~doc in
        if tf = 0 then acc else acc +. (idf *. tf_weight scorer index ~doc tf))
      0.0 per_term

let scores scorer index ~terms =
  let acc = Hashtbl.create 64 in
  let query_terms = List.sort_uniq String.compare terms in
  (* Count duplicates in the query as term boosts. *)
  let qtf term = List.length (List.filter (String.equal term) terms) in
  List.iter
    (fun term ->
      let weight = idf index term *. float_of_int (qtf term) in
      if weight > 0.0 then
        List.iter
          (fun (doc, tf) ->
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc doc) in
            Hashtbl.replace acc doc
              (prev +. (weight *. tf_weight scorer index ~doc tf)))
          (Inverted_index.postings index term))
    query_terms;
  let hits = Hashtbl.fold (fun doc s l -> (doc, s) :: l) acc [] in
  let hits = List.filter (fun (_, s) -> s > 0.0) hits in
  List.sort
    (fun (da, sa) (db, sb) ->
      let c = Float.compare sb sa in
      if c <> 0 then c else Int.compare da db)
    hits
