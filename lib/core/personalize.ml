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

type tally = { mutable mass : float }

let expand ?(config = default_config) ?(budget = Query_budget.unlimited) index query =
  let store = Prov_text_index.store index in
  let response =
    Contextual_search.search ~config:config.contextual ~budget
      ~limit:config.context_pages index query
  in
  let query_terms = Textindex.Tokenizer.terms query in
  let is_query_term term = List.mem term query_terms in
  (* Each term's mass in a float record, so adding to it allocates
     nothing. *)
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
          if String.length term > 2 && not (is_query_term term) then
            match Hashtbl.find tally term with
            | t -> t.mass <- t.mass +. r.Contextual_search.score
            | exception Not_found -> Hashtbl.add tally term { mass = r.Contextual_search.score })
        terms)
    response.Contextual_search.results;
  let by_weight (ta, wa) (tb, wb) =
    let c = Float.compare wb wa in
    if c <> 0 then c else String.compare ta tb
  in
  (* The [expansion_terms] heaviest terms, ties by name, kept worst
     first: a term joins them when they are too few or it beats the
     worst. *)
  let worst_first a b = by_weight b a in
  let kept =
    Hashtbl.fold
      (fun term t kept ->
        let idf = Prov_text_index.idf index term in
        if idf < config.min_idf then kept
        else begin
          let x = (term, t.mass *. idf) in
          if List.length kept < config.expansion_terms then List.merge worst_first [ x ] kept
          else
            match kept with
            | worst :: rest when by_weight x worst < 0 -> List.merge worst_first [ x ] rest
            | _ -> kept
        end)
      tally []
  in
  let added_terms = List.rev kept in
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
