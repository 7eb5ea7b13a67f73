type t = { places : Places_db.t; mutable search : Textindex.Search.t }

type result = { place_id : int; score : float }

let place_terms (p : Places_db.place) =
  Textindex.Tokenizer.terms p.Places_db.title
  @ Textindex.Tokenizer.terms_of_url p.Places_db.url

let build_index places =
  let search = Textindex.Search.create () in
  List.iter
    (fun (p : Places_db.place) ->
      if not p.Places_db.hidden then
        Textindex.Search.index_terms search p.Places_db.place_id (place_terms p))
    (Places_db.places places);
  search

let build places = { places; search = build_index places }

let search ?(limit = 10) t query =
  let hits = Textindex.Search.query ~limit:(limit * 5) t.search query in
  let scored =
    List.map
      (fun (r : Textindex.Search.result) ->
        let p = Places_db.place t.places r.Textindex.Search.doc in
        (* Frecency boost mirrors the awesome bar: text match gates,
           frecency orders among matches. *)
        {
          place_id = r.Textindex.Search.doc;
          score = r.Textindex.Search.score *. (1.0 +. log (1.0 +. max 0.0 p.Places_db.frecency));
        })
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
