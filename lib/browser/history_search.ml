type t = { places : Places_db.t; index : Textindex.Inverted_index.t }

type result = { place_id : int; score : float }

let place_terms (p : Places_db.place) =
  Textindex.Tokenizer.terms p.Places_db.title
  @ Textindex.Tokenizer.terms_of_url p.Places_db.url

let build_index places =
  let index = Textindex.Inverted_index.create () in
  List.iter
    (fun (p : Places_db.place) ->
      if not p.Places_db.hidden then
        Textindex.Inverted_index.add_document index p.Places_db.place_id (place_terms p))
    (Places_db.places places);
  index

let build places = { places; index = build_index places }

let search ?(limit = 10) t query =
  let hits =
    Textindex.Scorer.scores ~limit:(limit * 5) t.index ~terms:(Textindex.Tokenizer.terms query)
  in
  let scored =
    List.map
      (fun (place_id, score) ->
        let p = Places_db.place t.places place_id in
        (* Frecency boost mirrors the awesome bar: text match gates,
           frecency orders among matches. *)
        { place_id; score = score *. (1.0 +. log (1.0 +. max 0.0 p.Places_db.frecency)) })
      hits
  in
  let sorted =
    List.sort
      (fun a b ->
        let c = Float.compare b.score a.score in
        if c <> 0 then c else Int.compare a.place_id b.place_id)
      scored
  in
  List.filteri (fun i _ -> i < limit) sorted
