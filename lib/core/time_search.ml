module Scratch = Provkit_util.Scratch

type config = {
  candidate_limit : int;
  context_limit : int;
  proximity_tau : float;
  co_open_bonus : float;
}

let default_config =
  { candidate_limit = 30; context_limit = 20; proximity_tau = 600.0; co_open_bonus = 4.0 }

type result = { page : int; score : float; text_score : float; best_gap : int option }

type response = { results : result list; truncated : bool; elapsed_ms : float }

let page_of_hit store node =
  match Prov_store.node_opt store node with
  | None -> None
  | Some n -> begin
    match n.Prov_node.kind with
    | Prov_node.Page _ -> Some node
    | Prov_node.Bookmark { url; _ } -> Prov_store.page_of_url store url
    | _ -> None
  end

(* Visits reachable from a context hit: a page's instances, or the SERP
   visits a search-term node produced. *)
let context_visits store node =
  match Prov_store.node_opt store node with
  | None -> []
  | Some n -> begin
    match n.Prov_node.kind with
    | Prov_node.Page _ -> Prov_store.visits_of_page store node
    | Prov_node.Search_term _ -> Prov_store.out_of_kind store node Prov_edge.Search_query
    | Prov_node.Bookmark { url; _ } -> begin
      match Prov_store.page_of_url store url with
      | Some page -> Prov_store.visits_of_page store page
      | None -> []
    end
    | _ -> []
  end

(* The context as gaps are measured against it: its intervals' opening
   times ascending (an unclosed interval closing at [max_int]), and at
   each position the latest close among the intervals up to it. *)
type context = { opens : int array; latest : int array }

let context_of intervals =
  let a =
    Array.of_list (List.map (fun (o, c) -> (o, Option.value ~default:max_int c)) intervals)
  in
  Array.stable_sort (fun (o1, _) (o2, _) -> Int.compare o1 o2) a;
  let latest = Array.map snd a in
  for j = 1 to Array.length latest - 1 do
    latest.(j) <- Int.max latest.(j - 1) latest.(j)
  done;
  { opens = Array.map fst a; latest }

(* The smallest gap between [opened, closed] and a context interval.
   Intervals close no earlier than they open (Time_index clamps), so
   two intervals overlap (gap 0) unless the later-opening one opens
   after the other closes, and then the gap is the time between.  So the
   best context interval opened no later than this one is the one that
   closes last, and the best opened after it is the first: one binary
   search finds both. *)
let gap_to ctx ~opened ~closed =
  let n = Array.length ctx.opens in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ctx.opens.(mid) <= opened then lo := mid + 1 else hi := mid
  done;
  let before =
    if !lo = 0 then max_int
    else
      let c = ctx.latest.(!lo - 1) in
      if opened <= c then 0 else opened - c
  in
  let after =
    if !lo = n then max_int
    else
      let o = ctx.opens.(!lo) in
      if o <= closed then 0 else o - closed
  in
  Int.min before after

let instance_mask = Prov_edge.mask_of (( = ) Prov_edge.Instance)

(* The page's best gap over its visit instances, -1 when it has no
   visit interval or the context none. *)
let best_gap store time_index ctx page =
  let best = ref (-1) in
  if Array.length ctx.opens > 0 then begin
    let g = Prov_store.graph store in
    let adj = Provgraph.Digraph.out_adj g page in
    for i = 0 to Provgraph.Digraph.out_degree g page - 1 do
      let e = adj.(i) in
      let v = Provgraph.Digraph.other e in
      if Provgraph.Digraph.admits instance_mask e && Time_index.mem time_index v then begin
        let gap =
          gap_to ctx ~opened:(Time_index.opened time_index v) ~closed:(Time_index.closed time_index v)
        in
        if !best < 0 || gap < !best then best := gap
      end
    done
  end;
  !best

let proximity config gap =
  if gap = 0 then config.co_open_bonus
  else exp (-.float_of_int gap /. config.proximity_tau)

let search ?(budget = Query_budget.unlimited) ?(limit = 10) index time_index ~query ~context =
  let config = default_config in
  let running = Query_budget.start budget in
  let store = Prov_text_index.store index in
  (* One pass over the query's postings gives both the top text hits
     and the text score of any page. *)
  Prov_text_index.with_scores index query @@ fun text ->
  (* Context visit intervals, best text hits first, capped so pathological
     contexts ("the" matching everything) stay bounded. *)
  let context_hits = Prov_text_index.search ~limit:config.context_limit index context in
  let context_intervals =
    List.filteri
      (fun i _ -> i < 4 * config.context_limit)
      (List.concat_map
         (fun (node, _) ->
           List.filter_map
             (fun v -> Time_index.interval time_index v)
             (context_visits store node))
         context_hits)
  in
  let context = context_of context_intervals in
  (* The ranked pages are the scratch's members: each page that matches
     the query and has a visit to measure joins once, with its score
     and best gap.  A page that does not stays out, and is looked up again
     each time the scan meets it. *)
  Scratch.with_ ~bound:(Provgraph.Digraph.bound (Prov_store.graph store)) @@ fun ranked ->
  let score = Scratch.floats ranked 0 and gap = Scratch.ints ranked 0 in
  let consider page =
    if not (Scratch.mem ranked page) then begin
      let text_score = Textindex.Scorer.score text page in
      if text_score > 0.0 then
        let g = best_gap store time_index context page in
        if g >= 0 then begin
          Scratch.add ranked page;
          gap.(page) <- g;
          score.(page) <- text_score *. proximity config g
        end
    end
  in
  (* Candidate pages come from two directions: the top text hits for the
     primary query, and — crucially — every page visited in the temporal
     neighborhood of the context (the page the user half-remembers need
     not be a top-ranked text hit; being open next to the plane-ticket
     search is what identifies it). *)
  List.iter
    (fun (node, _) ->
      match page_of_hit store node with Some page -> consider page | None -> ())
    (Textindex.Scorer.top text config.candidate_limit);
  (* Temporal-neighborhood candidates: every visit open within [reach]
     of a context visit.  Overlapping windows are merged first, so no
     stretch of the time index is read twice. *)
  let reach = int_of_float (3.0 *. config.proximity_tau) in
  let consider_visit visit =
    let page = Prov_store.page_of_visit store visit in
    if page >= 0 then consider page
  in
  let rec scan = function
    | (s1, e1) :: (s2, e2) :: rest when s2 <= e1 -> scan ((s1, max e1 e2) :: rest)
    | (start, stop) :: rest ->
      Time_index.iter_window time_index ~start ~stop consider_visit;
      scan rest
    | [] -> ()
  in
  scan
    (List.sort compare
       (List.map
          (fun (opened, closed) ->
            (opened - reach, Option.value ~default:opened closed + reach))
          context_intervals));
  let truncated = Query_budget.out_of_time running in
  let n = Scratch.top ranked score limit in
  let results =
    List.init n (fun i ->
        let page = ranked.Scratch.heap.(i) in
        {
          page;
          score = score.(page);
          text_score = Textindex.Scorer.score text page;
          best_gap = Some gap.(page);
        })
  in
  { results; truncated; elapsed_ms = Query_budget.elapsed_ms running }
