module Digraph = Provgraph.Digraph
module Neighborhood = Provgraph.Neighborhood

(* Weight of graph proximity to the context, against the visit-count
   prior's 1. *)
let context_weight = 4.0

type suggestion = {
  page : int;
  url : string;
  title : string;
  score : float;
  base_score : float;
  context_score : float;
}

let matching_pages store ~typed =
  let needle = String.lowercase_ascii typed in
  Digraph.fold_nodes (Prov_store.graph store) ~init:[] ~f:(fun acc id n ->
      match n.Prov_node.kind with
      | Prov_node.Page { url; title }
        when (Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii url)
             || Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii title))
             && not (Prov_store.page_hidden store id) -> (id, url, title) :: acc
      | _ -> acc)

let suggest ?(limit = 6) ?(context = []) store typed =
  if String.trim typed = "" then []
  else begin
    let candidates = matching_pages store ~typed in
    (* [mass node] is a node's proximity to the context; a page's mass
       may have landed on the page node or on its visit instances. *)
    let rank mass =
      let context_of page =
        List.fold_left (fun acc v -> acc +. mass v) (mass page) (Prov_store.visits_of_page store page)
      in
      let scored =
        List.map
          (fun (page, url, title) ->
            let base = log (1.0 +. float_of_int (Prov_store.page_visit_count store page)) in
            let ctx = context_of page in
            {
              page;
              url;
              title;
              base_score = base;
              context_score = ctx;
              score = base +. (context_weight *. ctx);
            })
          candidates
      in
      List.filteri
        (fun i _ -> i < limit)
        (List.sort
           (fun a b ->
             let c = Float.compare b.score a.score in
             if c <> 0 then c else Int.compare a.page b.page)
           scored)
    in
    match context with
    | [] -> rank (fun _ -> 0.0)
    | _ ->
      (* One decayed expansion from the context nodes, shared by every
         candidate. *)
      let seeds = List.map (fun node -> (node, 1.0)) context in
      (* Never follow Same_time edges for suggestions: the context IS
         the present, temporal neighbors of the past add noise. *)
      let follow ~src:_ ~dst:_ (e : Prov_edge.t) = Prov_edge.is_causal e.Prov_edge.kind in
      Neighborhood.expand ~follow (Prov_store.graph store) ~seeds (fun e ->
          rank (Neighborhood.score e))
  end
