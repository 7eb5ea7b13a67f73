(* Workload [history]: the paper's four §2 queries, closed loop.

   One client runs a seeded mix of contextual search, personalized web
   search, time-contextual search and download lineage over the 79-day
   history of [Harness.Dataset.default], drawing inputs from the trace's
   own search episodes, dual-topic episodes and downloads.  Text index,
   time index, graph traversal and query budgets do the work; no daemon,
   WAL, snapshot or relstore code runs.  The history itself is a fixed
   fixture (the dataset's default seed): the workload seed picks the
   query stream, so every seed measures the same history. *)

module UM = Browser.User_model

type kind = Contextual | Personalize | Timectx | Lineage

let kind_name = function
  | Contextual -> "contextual"
  | Personalize -> "personalize"
  | Timectx -> "timectx"
  | Lineage -> "lineage"

let kinds = [ Contextual; Personalize; Timectx; Lineage ]

type fixture = {
  ds : Harness.Dataset.t;
  index : Core.Prov_text_index.t;
  queries : string array;
  contexts : (string * string) array;  (** (query, context) *)
  downloads : int array;  (** download node ids *)
}

let build_fixture () =
  let ds = Harness.Dataset.default () in
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let web = ds.Harness.Dataset.web in
  let trace = ds.Harness.Dataset.trace in
  let queries = Array.of_list (List.map (fun (e : UM.search_episode) -> e.UM.query) trace.UM.searches) in
  let contexts =
    Array.of_list
      (List.map
         (fun (d : UM.dual_episode) ->
           (Webmodel.Topic.name (Webmodel.Web_graph.topic web d.UM.focus_topic), d.UM.other_term))
         trace.UM.duals)
  in
  let downloads =
    Array.of_list
      (List.filter_map
         (fun (d : UM.download_episode) ->
           Core.Prov_store.download_node (Harness.Dataset.store ds) d.UM.download_id)
         trace.UM.downloads)
  in
  if Array.length queries = 0 || Array.length contexts = 0 || Array.length downloads = 0 then
    failwith "history: the dataset has no searches, dual episodes or downloads";
  { ds; index; queries; contexts; downloads }

type query = Q_contextual of string | Q_personalize of string | Q_timectx of string * string | Q_lineage of int

let kind_of = function
  | Q_contextual _ -> Contextual
  | Q_personalize _ -> Personalize
  | Q_timectx _ -> Timectx
  | Q_lineage _ -> Lineage

(* The mix follows the trace: one query per episode, so the kinds come in
   the proportions of the trace's own episode counts.  A search episode
   becomes a contextual or a personalized search (half each, as the
   trace does not say which use a search serves), a dual-topic episode a
   time-contextual search, and a download a lineage query. *)
let weights fx =
  let searches = Array.length fx.queries in
  [
    (Contextual, (searches + 1) / 2);
    (Personalize, searches / 2);
    (Timectx, Array.length fx.contexts);
    (Lineage, Array.length fx.downloads);
  ]

(* Picks kinds by smooth weighted round-robin, so every stretch of the
   stream holds the kinds in the weights' proportions (within one query
   each) and a run's tail never depends on how many rare queries a seed
   happened to bunch together. *)
let kind_stream weights =
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  let credit = Array.make (List.length weights) 0 in
  let kinds = Array.of_list (List.map fst weights) and w = Array.of_list (List.map snd weights) in
  fun () ->
    Array.iteri (fun i wi -> credit.(i) <- credit.(i) + wi) w;
    let best = ref 0 in
    Array.iteri (fun i c -> if c > credit.(!best) then best := i) credit;
    credit.(!best) <- credit.(!best) - total;
    kinds.(!best)

(* Draws from a pool by walking seeded permutations of it, so every seed
   measures nearly the same multiset of inputs and only their order
   differs: query costs vary widely by input, and drawing with
   replacement made the tail depend on which inputs a seed happened to
   pick. *)
let cycle rng pool =
  let a = Array.copy pool and i = ref (Array.length pool) in
  fun () ->
    if !i = Array.length a then begin
      Provkit_util.Prng.shuffle rng a;
      i := 0
    end;
    incr i;
    a.(!i - 1)

let query_stream fx seed =
  let rng = Provkit_util.Prng.create seed in
  let contextual = cycle rng fx.queries and personalize = cycle rng fx.queries in
  let contexts = cycle rng fx.contexts and downloads = cycle rng fx.downloads in
  let next_kind = kind_stream (weights fx) in
  fun () ->
    match next_kind () with
    | Contextual -> Q_contextual (contextual ())
    | Personalize -> Q_personalize (personalize ())
    | Timectx ->
      let q, c = contexts () in
      Q_timectx (q, c)
    | Lineage -> Q_lineage (downloads ())

let budget = Core.Query_budget.paper_default

type answer = Truncated of bool | Origin of Core.Lineage.origin option

(* Runs one query; the answer carries what the oracle needs. *)
let run_query fx = function
  | Q_contextual q -> Truncated (Core.Contextual_search.search ~budget fx.index q).Core.Contextual_search.truncated
  | Q_personalize q -> Truncated (Core.Personalize.expand ~budget fx.index q).Core.Personalize.truncated
  | Q_timectx (query, context) ->
    Truncated
      (Core.Time_search.search ~budget fx.index (Harness.Dataset.time_index fx.ds) ~query ~context)
        .Core.Time_search.truncated
  | Q_lineage d -> Origin (Core.Lineage.first_recognizable ~budget (Harness.Dataset.store fx.ds) d)

(* Exceptions and budget-truncated answers fail the query; a lineage
   origin must be among the download's ancestors.  A truncation is not a
   wrong answer: the budget's deadline is wall-clock, so a slow host
   alone can cause one, and it counts in [failed] without making the run
   incorrect. *)
let judge tally fx q answer =
  match (q, answer) with
  | _, None -> Common.checked_op tally false (kind_name (kind_of q) ^ " query raised")
  | _, Some (Truncated true) | _, Some (Origin (Some { Core.Lineage.truncated = true; _ })) ->
    Common.attempt tally 1;
    Common.fail tally 1
  | Q_lineage d, Some (Origin (Some o)) ->
    let anc = Core.Lineage.ancestors (Harness.Dataset.store fx.ds) d in
    Common.checked_op tally
      (List.mem_assoc o.Core.Lineage.node anc.Core.Lineage.ancestors)
      "lineage origin is not an ancestor of its download"
  | _, Some _ -> Common.attempt tally 1

let block = 250
let tail_p = 0.95

let timed fx q =
  let t0 = Common.now_ns () in
  let a = try Some (run_query fx q) with _ -> None in
  (a, Common.now_ns () - t0)

let untraced ~seed ~seconds ~workdir:_ =
  let tally = Common.tally () in
  let setup_s, setup_note, fx = Common.timed_setup ~reps:3 build_fixture in
  Common.quiesce ();
  let next = query_stream fx seed in
  let samples = ref [] and peak = Common.peak_after 1000 in
  Common.repeat_for ~seconds ~min_steps:1 (fun n ->
      let q = next () in
      let a, ns = timed fx q in
      samples := (kind_of q, Common.ms_of_ns ns) :: !samples;
      judge tally fx q a;
      Common.peak_step peak n);
  let all = List.rev_map snd !samples in
  let of_kind k = List.filter_map (fun (k', ms) -> if k = k' then Some ms else None) !samples in
  (* Each statistic is taken per block of [block] consecutive queries and
     the median over blocks reported, so a burst of host noise that slows
     a few blocks does not move it. *)
  let blocks = Common.blocks block all in
  let per_block f = Common.median (List.map f blocks) in
  let p50 = per_block Common.median and tail = per_block (Common.percentile tail_p) in
  {
    Common.correct = tally.Common.wrong = [];
    attempted = tally.Common.attempted;
    failed = tally.Common.failed;
    reported =
      [
        Common.metric "setup_s" "s" setup_s;
        Common.metric "throughput_per_s" "1/s" (per_block (fun b -> 1000.0 /. Common.mean b));
        Common.metric "latency_p50_ms" "ms" p50;
        Common.metric "latency_tail_ms" "ms" tail;
        Common.metric "peak_heap_mb" "MB" (Common.peak_mb peak);
      ];
    extra =
      [
        Common.metric "query_p50_ms" "ms" p50;
        Common.metric "query_p99_ms" "ms" (Common.percentile 0.99 all);
      ]
      @ List.map (fun k -> Common.metric (kind_name k ^ "_p50_ms") "ms" (Common.median (of_kind k))) kinds
      @ [ Common.metric "error_ratio" "ratio" (Common.ratio tally.Common.failed tally.Common.attempted) ];
    notes =
      Printf.sprintf
        "%d queries in %d blocks (%s) over %d search queries, %d dual-topic contexts, %d downloads; history: %d nodes, %d edges (latency_* pool all four kinds)"
        (List.length all) (List.length blocks)
        (String.concat ", "
           (List.map (fun k -> Printf.sprintf "%s %d" (kind_name k) (List.length (of_kind k))) kinds))
        (Array.length fx.queries) (Array.length fx.contexts) (Array.length fx.downloads)
        (Core.Prov_store.node_count (Harness.Dataset.store fx.ds))
        (Core.Prov_store.edge_count (Harness.Dataset.store fx.ds))
      :: setup_note :: tally.Common.wrong;
  }

(* --- traced run --------------------------------------------------------- *)

(* Visits reachable from a context hit, as time-contextual search
   gathers them: a page's instances, a search term's SERP visits, a
   bookmark's page's instances. *)
let context_visits store node =
  match Core.Prov_store.node_opt store node with
  | None -> []
  | Some n -> (
    match n.Core.Prov_node.kind with
    | Core.Prov_node.Page _ -> Core.Prov_store.visits_of_page store node
    | Core.Prov_node.Search_term _ ->
      List.filter_map
        (fun (dst, (e : Core.Prov_edge.t)) ->
          if e.Core.Prov_edge.kind = Core.Prov_edge.Search_query then Some dst else None)
        (Provgraph.Digraph.out_edges (Core.Prov_store.graph store) node)
    | Core.Prov_node.Bookmark { url; _ } -> (
      match Core.Prov_store.page_of_url store url with
      | Some page -> Core.Prov_store.visits_of_page store page
      | None -> [])
    | _ -> [])

type inner = {
  mutable text_hits : int;
  mutable text_searches : int;
  mutable window_ids : int;
  mutable windows : int;
  mutable ancestors : int;
  mutable ancestries : int;
  mutable truncated : int;
}

let text_search tr inner fx ~limit q =
  let hits =
    Tracer.with_span tr "text_index.search" (fun () -> Core.Prov_text_index.search ~limit fx.index q)
  in
  inner.text_hits <- inner.text_hits + List.length hits;
  inner.text_searches <- inner.text_searches + 1;
  hits

(* The inner public calls each query makes, repeated on the same inputs
   under their own spans (outside the query's span, so the query's own
   time is not inflated). *)
let inner_calls tr inner fx q =
  let store = Harness.Dataset.store fx.ds in
  let cs = Core.Contextual_search.default_config in
  match q with
  | Q_contextual query ->
    ignore (text_search tr inner fx ~limit:(max 40 (cs.Core.Contextual_search.seed_count * 4)) query);
    ignore
      (Tracer.with_span tr "contextual.textual_only" (fun () ->
           Core.Contextual_search.textual_only fx.index query))
  | Q_personalize query ->
    ignore (text_search tr inner fx ~limit:(max 40 (cs.Core.Contextual_search.seed_count * 4)) query)
  | Q_timectx (query, context) ->
    let ts = Core.Time_search.default_config in
    ignore (text_search tr inner fx ~limit:ts.Core.Time_search.candidate_limit query);
    let hits = text_search tr inner fx ~limit:ts.Core.Time_search.context_limit context in
    let ti = Harness.Dataset.time_index fx.ds in
    let intervals =
      List.filteri
        (fun i _ -> i < 4 * ts.Core.Time_search.context_limit)
        (List.concat_map
           (fun (node, _) -> List.filter_map (Core.Time_index.interval ti) (context_visits store node))
           hits)
    in
    let reach = int_of_float (3.0 *. ts.Core.Time_search.proximity_tau) in
    List.iter
      (fun (opened, closed) ->
        let stop = Option.value ~default:opened closed in
        let ids =
          Tracer.with_span tr "time_index.in_window" (fun () ->
              Core.Time_index.in_window ti ~start:(opened - reach) ~stop:(stop + reach))
        in
        inner.window_ids <- inner.window_ids + List.length ids;
        inner.windows <- inner.windows + 1)
      intervals
  | Q_lineage d ->
    let anc = Tracer.with_span tr "lineage.ancestors" (fun () -> Core.Lineage.ancestors store d) in
    inner.ancestors <- inner.ancestors + List.length anc.Core.Lineage.ancestors;
    inner.ancestries <- inner.ancestries + 1

let query_span q = "query." ^ kind_name (kind_of q)

let traced ~seed ~seconds ~workdir:_ ~trace_path =
  let tally = Common.tally () in
  let fx = build_fixture () in
  let tr = Tracer.create ~enabled:true ~domain:0 in
  let inner =
    { text_hits = 0; text_searches = 0; window_ids = 0; windows = 0; ancestors = 0; ancestries = 0; truncated = 0 }
  in
  (* One query of a pass, timed by the benchmark's clock; a traced pass
     adds the query's span and then its inner calls, outside that time. *)
  let step ~traced next total =
    let q = next () in
    let t0 = Common.now_ns () in
    let a =
      if traced then Tracer.with_span tr (query_span q) (fun () -> try Some (run_query fx q) with _ -> None)
      else try Some (run_query fx q) with _ -> None
    in
    total := !total + (Common.now_ns () - t0);
    judge tally fx q a;
    if traced then begin
      (match a with
      | Some (Truncated true) | Some (Origin (Some { Core.Lineage.truncated = true; _ })) ->
        inner.truncated <- inner.truncated + 1
      | _ -> ());
      inner_calls tr inner fx q
    end
  in
  (* Passes alternate untraced, traced, untraced, traced over the same
     query stream.  The first fixes how many queries each pass runs; each
     side's faster pass gives trace.overhead_pct. *)
  let pass ~traced ~count =
    Common.quiesce ();
    let next = query_stream fx seed and total = ref 0 and n = ref 0 in
    let one () = step ~traced next total; incr n in
    (match count with
    | None -> Common.repeat_for ~seconds:(seconds /. 6.0) ~min_steps:1 (fun _ -> one ())
    | Some k -> for _ = 1 to k do one () done);
    (!n, !total)
  in
  let n, plain1 = pass ~traced:false ~count:None in
  let _, traced1 = pass ~traced:true ~count:(Some n) in
  let _, plain2 = pass ~traced:false ~count:(Some n) in
  let gc0 = Common.gc_point () in
  let _, traced2 = pass ~traced:true ~count:(Some n) in
  let gc1 = Common.gc_point () in
  let spans = Tracer.spans [ tr ] in
  let agg = Tracer.aggregate spans in
  Tracer.write_jsonl ~path:trace_path ~run_id:(Printf.sprintf "history-%d" seed) spans;
  let plain_ns = min plain1 plain2 and traced_ns = min traced1 traced2 in
  let per = Common.ratio in
  let layer =
    [
      Common.metric "text_index.search_us" "us" (Tracer.mean_us agg "text_index.search");
      Common.metric "text_index.hits_per_query" "count" (per inner.text_hits inner.text_searches);
      Common.metric "contextual.expand_us" "us"
        (Tracer.mean_us agg "query.contextual" -. Tracer.mean_us agg "contextual.textual_only");
      Common.metric "time_index.in_window_us" "us" (Tracer.mean_us agg "time_index.in_window");
      Common.metric "time_index.ids_per_window" "count" (per inner.window_ids inner.windows);
      Common.metric "lineage.ancestors_us" "us" (Tracer.mean_us agg "lineage.ancestors");
      Common.metric "lineage.nodes_visited" "count" (per inner.ancestors inner.ancestries);
      Common.metric "query_budget.truncated_ratio" "ratio" (per inner.truncated (2 * n));
    ]
    @ Common.gc_metrics ~before:gc0 ~after:gc1 ~units:n
    @ [ Common.metric "trace.overhead_pct" "%" (100.0 *. ((float_of_int traced_ns /. float_of_int plain_ns) -. 1.0)) ]
  in
  let mean_ms ns = Common.ms_of_ns ns /. float_of_int n in
  ( tally,
    layer,
    agg,
    [
      Printf.sprintf "%d queries per pass; mean query: untraced passes %.3f / %.3f ms, traced passes %.3f / %.3f ms"
        n (mean_ms plain1) (mean_ms plain2) (mean_ms traced1) (mean_ms traced2);
    ] )
