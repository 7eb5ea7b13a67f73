(* The §2 answers, pinned.

   A 20-day history (11 dual-topic contexts) answers every input of the
   pools the history benchmark draws from: each search episode's query
   through contextual search and personalized web search, each
   dual-topic episode through time-contextual search, and each download
   through lineage, all under Query_budget.paper_default.  Each answer
   is rendered with its floats as %h, so a change in the last bit of a
   score shows, and compared line by line with data/history_answers.txt,
   which holds one digest (64 bits of its MD5) per input.  Elapsed
   times are not part of an answer.

   Experiment E12's graph-ranked variants of contextual search
   (PageRank and HITS over the focused subgraph, whose float sums follow
   the order the subgraph's edges were added in) answer the same
   queries as E12 calls them, without a budget, pinned the same way in
   data/e12_answers.txt.

   Three differential cases keep the pipelines these answers were first
   pinned with: E12 against the Hashtbl rankers, contextual and
   personalized search against the Hashtbl expansion and page sums, and
   time-contextual search against the per-document scorer.  They allow
   only float-rounding differences, so an answer that moves in its last
   bits can be re-pinned once they pass.

   To rewrite a file from the code under test (only when an answer is
   meant to change), run the suite with PROV_WRITE_ANSWERS (or
   PROV_WRITE_E12_ANSWERS) set to the output path. *)

module UM = Browser.User_model
module CS = Core.Contextual_search
module TS = Core.Time_search

let days = 20
let budget = Core.Query_budget.paper_default

let ranked (r : CS.response) =
  String.concat ";"
    (Printf.sprintf "truncated=%b" r.CS.truncated
    :: List.map
         (fun (x : CS.result) ->
           Printf.sprintf "%d %h %h %h" x.CS.page x.CS.score x.CS.text_score x.CS.graph_score)
         r.CS.results)

let personalize index q =
  let e = Core.Personalize.expand ~budget index q in
  String.concat ";"
    (Printf.sprintf "truncated=%b" e.Core.Personalize.truncated
    :: e.Core.Personalize.expanded
    :: List.map (fun (t, w) -> Printf.sprintf "%s %h" t w) e.Core.Personalize.added_terms)

let timectx index time_index (query, context) =
  let r = TS.search ~budget index time_index ~query ~context in
  String.concat ";"
    (Printf.sprintf "truncated=%b" r.TS.truncated
    :: List.map
         (fun (x : TS.result) ->
           Printf.sprintf "%d %h %h %s" x.TS.page x.TS.score x.TS.text_score
             (match x.TS.best_gap with None -> "-" | Some g -> string_of_int g))
         r.TS.results)

let lineage store d =
  match Core.Lineage.first_recognizable ~budget store d with
  | None -> "none"
  | Some o ->
    Printf.sprintf "%d %d [%s] truncated=%b" o.Core.Lineage.node o.Core.Lineage.distance
      (String.concat " " (List.map string_of_int o.Core.Lineage.path))
      o.Core.Lineage.truncated

(* (kind, input, rendered answer) for every pool input, pools in trace
   order. *)
let answers ds =
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let store = Harness.Dataset.store ds in
  let trace = ds.Harness.Dataset.trace in
  let web = ds.Harness.Dataset.web in
  let queries = List.map (fun (e : UM.search_episode) -> e.UM.query) trace.UM.searches in
  let contexts =
    List.map
      (fun (d : UM.dual_episode) ->
        (Webmodel.Topic.name (Webmodel.Web_graph.topic web d.UM.focus_topic), d.UM.other_term))
      trace.UM.duals
  in
  let downloads =
    List.filter_map
      (fun (d : UM.download_episode) -> Core.Prov_store.download_node store d.UM.download_id)
      trace.UM.downloads
  in
  List.map (fun q -> ("contextual", q, ranked (CS.search ~budget index q))) queries
  @ List.map (fun q -> ("personalize", q, personalize index q)) queries
  @ List.map
      (fun (q, c) ->
        ("timectx", q ^ " | " ^ c, timectx index (Harness.Dataset.time_index ds) (q, c)))
      contexts
  @ List.map (fun d -> ("lineage", string_of_int d, lineage store d)) downloads

let line (kind, input, answer) =
  Printf.sprintf "%s\t%s\t%s" kind input (String.sub (Digest.to_hex (Digest.string answer)) 0 16)

let e12_answers ds =
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let queries =
    List.map (fun (e : UM.search_episode) -> e.UM.query) ds.Harness.Dataset.trace.UM.searches
  in
  List.map (fun q -> ("pagerank", q, ranked (CS.search_pagerank index q))) queries
  @ List.map (fun q -> ("hits", q, ranked (CS.search_hits index q))) queries

let check_golden ~file ~write_env got =
  let golden = Core_fixtures.data_path file in
  (match Sys.getenv_opt write_env with
  | Some path when path <> "" ->
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun a -> output_string oc (line a ^ "\n")) got)
  | _ -> ());
  let want =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (In_channel.with_open_bin golden In_channel.input_all))
  in
  Alcotest.(check int) "answer count" (List.length want) (List.length got);
  List.iter2
    (fun w ((kind, input, answer) as a) ->
      if line a <> w then
        Alcotest.failf "%s %S: answer differs from %s\nnow: %s" kind input golden answer)
    want got

let test_answers () =
  let ds = Harness.Dataset.with_days days in
  Alcotest.(check bool) "at least 10 dual-topic contexts" true
    (List.length ds.Harness.Dataset.trace.UM.duals >= 10);
  check_golden ~file:"history_answers.txt" ~write_env:"PROV_WRITE_ANSWERS" (answers ds)

let test_e12_answers () =
  check_golden ~file:"e12_answers.txt" ~write_env:"PROV_WRITE_E12_ANSWERS"
    (e12_answers (Harness.Dataset.with_days days))

(* --- E12 against the Hashtbl rankers ---

   E12 as it ran before PageRank and HITS moved onto the induced
   subgraph: the same text seeds and walk (default config, no budget),
   Graph_model.Rank's sub-Digraph and Hashtbl rankers, the graph-score
   table each search filled, and [respond]'s page sums and ranking. *)

let page_target store id =
  let module S = Core.Prov_store in
  let visible page = if S.page_hidden store page then None else Some page in
  match Option.map (fun (n : Core.Prov_node.t) -> n.Core.Prov_node.kind) (S.node_opt store id) with
  | Some (Core.Prov_node.Page _) -> visible id
  | Some (Core.Prov_node.Visit _) ->
    let page = S.page_of_visit store id in
    if page >= 0 then visible page else None
  | Some (Core.Prov_node.Bookmark { url; _ }) -> Option.bind (S.page_of_url store url) visible
  | _ -> None

(* [respond] as it was: page sums in a Hashtbl, the graph scores
   summed in [graph_scores]' iteration order. *)
let reference_respond ~limit ~truncated store hits graph_scores =
  let config = CS.default_config in
  let sums = Hashtbl.create 64 in
  let bump page ~text ~graph_mass =
    let total, t, g = Option.value ~default:(0.0, 0.0, 0.0) (Hashtbl.find_opt sums page) in
    Hashtbl.replace sums page
      ( total +. (config.CS.text_weight *. text) +. (config.CS.graph_weight *. graph_mass),
        t +. text,
        g +. graph_mass )
  in
  List.iter
    (fun (node, score) -> Option.iter (bump ~text:score ~graph_mass:0.0) (page_target store node))
    hits;
  Hashtbl.iter
    (fun node mass -> Option.iter (bump ~text:0.0 ~graph_mass:mass) (page_target store node))
    graph_scores;
  let by_score (pa, (a, _, _)) (pb, (b, _, _)) =
    let c = Float.compare b a in
    if c <> 0 then c else Int.compare pa pb
  in
  let pages = List.sort by_score (Hashtbl.fold (fun page s acc -> (page, s) :: acc) sums []) in
  let result (page, (score, text_score, graph_score)) =
    { CS.page; score; text_score; graph_score }
  in
  { CS.results = List.map result (List.filteri (fun i _ -> i < limit) pages); truncated; elapsed_ms = 0.0 }

(* The default config follows every edge but the time edges. *)
let follow_default ~src:_ ~dst:_ (e : Core.Prov_edge.t) = e.Core.Prov_edge.kind <> Core.Prov_edge.Same_time

let text_hits ~limit index query =
  let config = CS.default_config in
  let hits =
    Core.Prov_text_index.search ~limit:(max (limit * 4) (config.CS.seed_count * 4)) index query
  in
  (hits, List.filteri (fun i _ -> i < config.CS.seed_count) hits)

let reference_e12 rank model index query =
  let config = CS.default_config in
  let store = Core.Prov_text_index.store index in
  let hits, seeds = text_hits ~limit:10 index query in
  let graph = Core.Prov_store.graph store in
  let walk =
    Graph_model.bfs ~direction:Graph_model.Both ~max_depth:config.CS.max_hops
      ~follow:follow_default model ~roots:(List.map fst seeds)
  in
  let members = List.map fst walk.Provgraph.Traversal.visited in
  let sub = Graph_model.Rank.sub_digraph graph ~follow:follow_default members in
  reference_respond ~limit:10 ~truncated:walk.Provgraph.Traversal.truncated store hits
    (rank sub seeds)

let reference_pagerank sub seeds =
  let pr = Graph_model.Rank.pagerank ~damping:0.85 ~personalization:seeds sub in
  let graph_scores = Hashtbl.create (Hashtbl.length pr) in
  let scale = float_of_int (max 1 (Provgraph.Digraph.node_count sub)) in
  Hashtbl.iter (fun id v -> Hashtbl.replace graph_scores id (v *. scale /. 10.0)) pr;
  graph_scores

let reference_hits sub _ =
  let scores = Graph_model.Rank.hits sub in
  let graph_scores = Hashtbl.create 64 in
  Hashtbl.iter
    (fun id authority ->
      let hub = Option.value ~default:0.0 (Hashtbl.find_opt scores.Graph_model.Rank.hub id) in
      Hashtbl.replace graph_scores id (authority +. (0.5 *. hub)))
    scores.Graph_model.Rank.authority;
  graph_scores

(* PageRank answers must be bit-identical; HITS answers must rank the
   same pages in the same order, with every score within 1e-12
   relative error (the new HITS sums its L2 norms over ascending ids,
   the Hashtbl one in bucket order). *)
let test_e12_against_reference () =
  let ds = Harness.Dataset.with_days days in
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let model = Graph_model.Digraph.of_digraph (Core.Prov_store.graph (Harness.Dataset.store ds)) in
  let close a b = a = b || Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b) in
  List.iter
    (fun (e : UM.search_episode) ->
      let q = e.UM.query in
      Alcotest.(check string) ("pagerank " ^ q)
        (ranked (reference_e12 reference_pagerank model index q))
        (ranked (CS.search_pagerank index q));
      let want = reference_e12 reference_hits model index q and got = CS.search_hits index q in
      Alcotest.(check bool) ("hits truncated " ^ q) want.CS.truncated got.CS.truncated;
      Alcotest.(check (list int)) ("hits pages " ^ q)
        (List.map (fun (r : CS.result) -> r.CS.page) want.CS.results)
        (List.map (fun (r : CS.result) -> r.CS.page) got.CS.results);
      List.iter2
        (fun (w : CS.result) (g : CS.result) ->
          if
            not
              (close w.CS.score g.CS.score
              && close w.CS.text_score g.CS.text_score
              && close w.CS.graph_score g.CS.graph_score)
          then Alcotest.failf "hits %S: %s against %s" q (ranked got) (ranked want))
        want.CS.results got.CS.results)
    ds.Harness.Dataset.trace.UM.searches

(* --- contextual and personalized search against the Hashtbl expansion ---

   Contextual search as it ran before the expansion handed back dense
   arrays: Graph_model's Hashtbl expansion over a model of the store's
   graph (each node's edges in the same order), the same budget, and
   [reference_respond], whose page sums follow the table's bucket
   order. *)

let reference_contextual ~limit model index query =
  let config = CS.default_config in
  let running = Core.Query_budget.start budget in
  let store = Core.Prov_text_index.store index in
  let hits, seeds = text_hits ~limit index query in
  let scores, truncated =
    if Core.Query_budget.out_of_time running then (Hashtbl.create 1, true)
    else begin
      let nconfig =
        {
          Provgraph.Neighborhood.decay = config.CS.decay;
          max_hops = config.CS.max_hops;
          node_budget = Core.Query_budget.remaining_nodes running;
          degree_normalize = config.CS.degree_normalize;
        }
      in
      let scores, truncated =
        Graph_model.expand ~config:nconfig ~follow:follow_default model ~seeds
      in
      Core.Query_budget.consume_nodes running (Hashtbl.length scores);
      (scores, truncated)
    end
  in
  reference_respond ~limit ~truncated:(Core.Query_budget.was_truncated running truncated) store
    hits scores

(* Personalize.expand's term mining over the reference's results. *)
let reference_personalize model index query =
  let store = Core.Prov_text_index.store index in
  (* Personalize's constants: 15 context pages, IDF floor 0.2, 2 terms. *)
  let response = reference_contextual ~limit:15 model index query in
  let query_terms = Textindex.Tokenizer.terms query in
  let tally = Hashtbl.create 64 in
  List.iter
    (fun (r : CS.result) ->
      List.iter
        (fun term ->
          if String.length term > 2 && not (List.mem term query_terms) then begin
            let prev = Option.value ~default:0.0 (Hashtbl.find_opt tally term) in
            Hashtbl.replace tally term (prev +. r.CS.score)
          end)
        (Core.Prov_text_index.distinct_terms index (Core.Prov_store.node store r.CS.page)))
    response.CS.results;
  let weighted =
    Hashtbl.fold
      (fun term mass acc ->
        let idf = Core.Prov_text_index.idf index term in
        if idf >= 0.2 then (term, mass *. idf) :: acc else acc)
      tally []
  in
  let ranked =
    List.sort
      (fun (ta, wa) (tb, wb) ->
        let c = Float.compare wb wa in
        if c <> 0 then c else String.compare ta tb)
      weighted
  in
  let added = List.filteri (fun i _ -> i < 2) ranked in
  let expanded =
    match added with [] -> query | _ -> query ^ " " ^ String.concat " " (List.map fst added)
  in
  (response.CS.truncated, expanded, added)

let close a b = a = b || Float.abs (a -. b) <= 1e-12 *. Float.max (Float.abs a) (Float.abs b)

(* [got] answers as [want] does up to float rounding: the same
   truncation flag and length; at each rank scores within 1e-12, so
   pages trade places only with near-tied pages; a page both rank with
   all three scores within 1e-12; and a page only one ranks tied with
   the other's last, so it swapped places with a near-tied page at the
   limit cut. *)
let check_near ~what (want : CS.response) (got : CS.response) =
  let fail () = Alcotest.failf "%s: %s against %s" what (ranked got) (ranked want) in
  let wr = want.CS.results and gr = got.CS.results in
  if want.CS.truncated <> got.CS.truncated || List.length wr <> List.length gr then fail ();
  List.iter2 (fun (w : CS.result) (g : CS.result) -> if not (close w.CS.score g.CS.score) then fail ()) wr gr;
  let matched rs (r : CS.result) =
    match List.find_opt (fun (o : CS.result) -> o.CS.page = r.CS.page) rs with
    | Some o ->
      close o.CS.score r.CS.score && close o.CS.text_score r.CS.text_score
      && close o.CS.graph_score r.CS.graph_score
    | None -> close r.CS.score (List.nth rs (List.length rs - 1)).CS.score
  in
  List.iter (fun g -> if not (matched wr g) then fail ()) gr;
  List.iter (fun w -> if not (matched gr w) then fail ()) wr

let test_contextual_against_reference () =
  let ds = Harness.Dataset.with_days days in
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let model = Graph_model.Digraph.of_digraph (Core.Prov_store.graph (Harness.Dataset.store ds)) in
  List.iter
    (fun (e : UM.search_episode) ->
      let q = e.UM.query in
      check_near ~what:("contextual " ^ q) (reference_contextual ~limit:10 model index q)
        (CS.search ~budget index q);
      let truncated, expanded, added = reference_personalize model index q in
      let got = Core.Personalize.expand ~budget index q in
      Alcotest.(check bool) ("personalize truncated " ^ q) truncated got.Core.Personalize.truncated;
      Alcotest.(check string) ("personalize " ^ q) expanded got.Core.Personalize.expanded;
      Alcotest.(check (list string)) ("personalize terms " ^ q) (List.map fst added)
        (List.map fst got.Core.Personalize.added_terms);
      List.iter2
        (fun (_, w) (_, g) ->
          if not (close w g) then Alcotest.failf "personalize %S: term weight %h against %h" q g w)
        added got.Core.Personalize.added_terms)
    ds.Harness.Dataset.trace.UM.searches

(* --- time-contextual search against the per-document scorer ---

   Time-contextual search as it ran before it read its candidates' text
   scores off the pass that found its text hits: Textindex_model's
   index over the same nodes, its ranked hits, its per-document
   [score_document] for every candidate page, every visit of each
   context window read with no windows merged, each page's best gap
   tried against every context interval, and a sort. *)

module MI = Textindex_model.Inverted_index
module MS = Textindex_model.Scorer

let model_index store =
  let index = MI.create () in
  Provgraph.Digraph.iter_nodes (Core.Prov_store.graph store) (fun id (n : Core.Prov_node.t) ->
      match n.Core.Prov_node.kind with
      | Core.Prov_node.Page _ | Core.Prov_node.Search_term _ | Core.Prov_node.Bookmark _ ->
        MI.add_document index id (Core.Prov_node.text_terms n)
      | _ -> ());
  index

let reference_timectx ~limit model store time_index ~query ~context =
  let module S = Core.Prov_store in
  let config = TS.default_config in
  let hits text k =
    MS.truncate (Some k) (MS.scores model ~terms:(Textindex.Tokenizer.terms text))
  in
  let kind node =
    Option.map (fun (n : Core.Prov_node.t) -> n.Core.Prov_node.kind) (S.node_opt store node)
  in
  let page_of_url url = Option.to_list (S.page_of_url store url) in
  let pages_of_hit node =
    match kind node with
    | Some (Core.Prov_node.Page _) -> [ node ]
    | Some (Core.Prov_node.Bookmark { url; _ }) -> page_of_url url
    | _ -> []
  in
  let context_visits node =
    match kind node with
    | Some (Core.Prov_node.Page _) -> S.visits_of_page store node
    | Some (Core.Prov_node.Search_term _) ->
      List.filter_map
        (fun (dst, (e : Core.Prov_edge.t)) ->
          if e.Core.Prov_edge.kind = Core.Prov_edge.Search_query then Some dst else None)
        (Provgraph.Digraph.out_edges (S.graph store) node)
    | Some (Core.Prov_node.Bookmark { url; _ }) ->
      List.concat_map (S.visits_of_page store) (page_of_url url)
    | _ -> []
  in
  let context_intervals =
    List.filteri
      (fun i _ -> i < 4 * config.TS.context_limit)
      (List.concat_map
         (fun (node, _) ->
           List.filter_map (Core.Time_index.interval time_index) (context_visits node))
         (hits context config.TS.context_limit))
  in
  let candidates = Hashtbl.create 64 in
  List.iter
    (fun (node, _) ->
      List.iter (fun page -> Hashtbl.replace candidates page ()) (pages_of_hit node))
    (hits query config.TS.candidate_limit);
  let reach = int_of_float (3.0 *. config.TS.proximity_tau) in
  List.iter
    (fun (opened, closed) ->
      List.iter
        (fun visit ->
          let page = S.page_of_visit store visit in
          if page >= 0 then Hashtbl.replace candidates page ())
        (Core.Time_index.in_window time_index ~start:(opened - reach)
           ~stop:(Option.value ~default:opened closed + reach)))
    context_intervals;
  let close_of c = Option.value ~default:max_int c in
  let gap (o1, c1) (o2, c2) =
    let c1 = close_of c1 and c2 = close_of c2 in
    if o2 > c1 then o2 - c1 else if o1 > c2 then o1 - c2 else 0
  in
  let best_gap page =
    let gaps =
      List.concat_map
        (fun visit ->
          match Core.Time_index.interval time_index visit with
          | None -> []
          | Some own -> List.map (gap own) context_intervals)
        (S.visits_of_page store page)
    in
    match gaps with [] -> None | g :: rest -> Some (List.fold_left Int.min g rest)
  in
  let score_document = MS.score_document model ~terms:(Textindex.Tokenizer.terms query) in
  let results =
    Hashtbl.fold
      (fun page () acc ->
        let text_score = score_document ~doc:page in
        match best_gap page with
        | Some g when text_score > 0.0 ->
          let proximity =
            if g = 0 then config.TS.co_open_bonus
            else exp (-.float_of_int g /. config.TS.proximity_tau)
          in
          { TS.page; score = text_score *. proximity; text_score; best_gap = Some g } :: acc
        | _ -> acc)
      candidates []
  in
  List.filteri
    (fun i _ -> i < limit)
    (List.sort
       (fun (a : TS.result) (b : TS.result) ->
         let c = Float.compare b.TS.score a.TS.score in
         if c <> 0 then c else Int.compare a.TS.page b.TS.page)
       results)

(* Every dual-topic context, and each again with its context word
   appended to the query, with every ranked page compared, not only the
   top 10.  A one-term query sums one float per page on
   either path, so it must match bit for bit; with more terms the
   accumulator sums them in another order, so scores may move within
   1e-12 but pages, their order and their gaps may not. *)
let test_timectx_against_reference () =
  let ds = Harness.Dataset.with_days days in
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let store = Harness.Dataset.store ds in
  let time_index = Harness.Dataset.time_index ds in
  let model = model_index store in
  let web = ds.Harness.Dataset.web in
  let render results =
    String.concat ";"
      (List.map
         (fun (x : TS.result) ->
           Printf.sprintf "%d %h %h %s" x.TS.page x.TS.score x.TS.text_score
             (match x.TS.best_gap with None -> "-" | Some g -> string_of_int g))
         results)
  in
  let check ~query ~context =
    let what = query ^ " | " ^ context in
    let want = reference_timectx ~limit:max_int model store time_index ~query ~context in
    let got = (TS.search ~limit:max_int index time_index ~query ~context).TS.results in
    if want = [] then Alcotest.failf "timectx %S: no answer to compare" what;
    if List.length (Textindex.Tokenizer.terms query) = 1 then
      Alcotest.(check string) ("timectx " ^ what) (render want) (render got)
    else begin
      let fail () = Alcotest.failf "timectx %S: %s against %s" what (render got) (render want) in
      if List.length want <> List.length got then fail ();
      List.iter2
        (fun (w : TS.result) (g : TS.result) ->
          if
            not
              (w.TS.page = g.TS.page
              && w.TS.best_gap = g.TS.best_gap
              && close w.TS.score g.TS.score
              && close w.TS.text_score g.TS.text_score)
          then fail ())
        want got
    end
  in
  let multi = ref 0 in
  List.iter
    (fun (d : UM.dual_episode) ->
      let query = Webmodel.Topic.name (Webmodel.Web_graph.topic web d.UM.focus_topic) in
      let context = d.UM.other_term in
      check ~query ~context;
      let query = query ^ " " ^ context in
      if List.length (Textindex.Tokenizer.terms query) > 1 then incr multi;
      check ~query ~context)
    ds.Harness.Dataset.trace.UM.duals;
  Alcotest.(check int) "every widened query has more than one term"
    (List.length ds.Harness.Dataset.trace.UM.duals) !multi

let suite =
  [
    Alcotest.test_case "every pool input, digest per answer" `Quick test_answers;
    Alcotest.test_case "E12 PageRank and HITS answers" `Quick test_e12_answers;
    Alcotest.test_case "E12 against the Hashtbl rankers" `Quick test_e12_against_reference;
    Alcotest.test_case "contextual and personalize against the Hashtbl expansion" `Quick
      test_contextual_against_reference;
    Alcotest.test_case "time-contextual against the per-document scorer" `Quick
      test_timectx_against_reference;
  ]
