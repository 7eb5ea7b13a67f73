type config = {
  context_pages : int;
  contextual : Contextual_search.config;
  expansion_terms : int;
  min_idf : float;
}

let default_config =
  {
    context_pages = 15;
    contextual = Contextual_search.default_config;
    expansion_terms = 2;
    min_idf = 0.2;
  }

type expansion = {
  original : string;
  expanded : string;
  added_terms : (string * float) list;
  truncated : bool;
  elapsed_ms : float;
}

let expand ?(config = default_config) ?(budget = Query_budget.unlimited) index query =
  let store = Prov_text_index.store index in
  let response =
    Contextual_search.search ~config:config.contextual ~budget
      ~limit:config.context_pages index query
  in
  let query_terms = Textindex.Tokenizer.terms query in
  let is_query_term term = List.mem term query_terms in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun (r : Contextual_search.result) ->
      (* Each distinct term counts once per page, weighted by how
         relevant the page is to the query. *)
      let terms =
        Prov_text_index.distinct_terms index (Prov_store.node store r.Contextual_search.page)
      in
      List.iter
        (fun term ->
          if String.length term > 2 && not (is_query_term term) then begin
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt tally term) in
            Hashtbl.replace tally term (prev +. r.Contextual_search.score)
          end)
        terms)
    response.Contextual_search.results;
  let weighted =
    Hashtbl.fold
      (fun term mass acc ->
        let idf = Prov_text_index.idf index term in
        if idf >= config.min_idf then (term, mass *. idf) :: acc else acc)
      tally []
  in
  let ranked =
    List.sort
      (fun (ta, wa) (tb, wb) ->
        let c = Float.compare wb wa in
        if c <> 0 then c else String.compare ta tb)
      weighted
  in
  let added_terms = List.filteri (fun i _ -> i < config.expansion_terms) ranked in
  let expanded =
    match added_terms with
    | [] -> query
    | _ -> query ^ " " ^ String.concat " " (List.map fst added_terms)
  in
  {
    original = query;
    expanded;
    added_terms;
    truncated = response.Contextual_search.truncated;
    elapsed_ms = response.Contextual_search.elapsed_ms;
  }
