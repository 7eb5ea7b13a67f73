module Event = Browser.Event
module Transition = Browser.Transition
module Obs = Provkit_obs

(* Events ingested, total and per kind — the capture half of the
   paper's recording-overhead story. *)
let m_events = Obs.Metrics.counter Obs.Names.capture_events
let m_visit = Obs.Metrics.counter Obs.Names.capture_visit
let m_close = Obs.Metrics.counter Obs.Names.capture_close
let m_tab_opened = Obs.Metrics.counter Obs.Names.capture_tab_opened
let m_tab_closed = Obs.Metrics.counter Obs.Names.capture_tab_closed
let m_bookmark = Obs.Metrics.counter Obs.Names.capture_bookmark
let m_search = Obs.Metrics.counter Obs.Names.capture_search
let m_download = Obs.Metrics.counter Obs.Names.capture_download
let m_form = Obs.Metrics.counter Obs.Names.capture_form

let count_event event =
  Obs.Metrics.incr m_events;
  Obs.Metrics.incr
    (match (event : Event.t) with
    | Event.Visit _ -> m_visit
    | Event.Close _ -> m_close
    | Event.Tab_opened _ -> m_tab_opened
    | Event.Tab_closed _ -> m_tab_closed
    | Event.Bookmark_added _ -> m_bookmark
    | Event.Search _ -> m_search
    | Event.Download_started _ -> m_download
    | Event.Form_submitted _ -> m_form);
  (* Each ingested event advances the telemetry clock: every
     pulse_interval-th event snapshots the registry into the default
     time-series ring. *)
  Obs.Timeseries.pulse ()

type config = {
  record_typed_edges : bool;
  record_bookmark_nodes : bool;
  record_search_nodes : bool;
  record_form_nodes : bool;
  record_download_nodes : bool;
  record_close_times : bool;
  record_time_edges : bool;
  time_edge_fanout : int;
  record_tab_spawn : bool;
}

let full =
  {
    record_typed_edges = true;
    record_bookmark_nodes = true;
    record_search_nodes = true;
    record_form_nodes = true;
    record_download_nodes = true;
    record_close_times = true;
    record_time_edges = true;
    time_edge_fanout = 4;
    record_tab_spawn = true;
  }

let firefox_like =
  {
    record_typed_edges = false;
    record_bookmark_nodes = false;
    record_search_nodes = false;
    record_form_nodes = false;
    record_download_nodes = true;
    record_close_times = false;
    record_time_edges = false;
    time_edge_fanout = 0;
    record_tab_spawn = false;
  }

type t = {
  config : config;
  store : Prov_store.t;
  time_index : Time_index.t;
  referrer_of : (int, int) Hashtbl.t;  (* engine visit -> engine referrer *)
  tab_current : (int, int) Hashtbl.t;  (* tab -> displayed engine visit *)
  pending_spawn : (int, int) Hashtbl.t;  (* fresh tab -> opener's engine visit *)
  open_order : (int, int) Hashtbl.t;  (* engine visit -> open sequence no. *)
  mutable open_seq : int;
}

let edge_kind_for config (transition : Transition.t) =
  match transition with
  | Transition.Link | Transition.Framed_link -> Some Prov_edge.Link_traversal
  | Transition.Typed ->
    if config.record_typed_edges then Some Prov_edge.Typed_traversal else None
  | Transition.Redirect_permanent | Transition.Redirect_temporary -> Some Prov_edge.Redirect
  | Transition.Embed -> Some Prov_edge.Embed
  | Transition.Download -> Some Prov_edge.Link_traversal
  | Transition.Bookmark ->
    (* The bookmark node itself carries the causality when bookmark
       nodes are on; otherwise Firefox-style: no relationship at all. *)
    None
  | Transition.Form_submit ->
    if config.record_form_nodes then None (* the form node will connect *)
    else Some Prov_edge.Link_traversal
  | Transition.Reload -> Some Prov_edge.Reload

let handle_visit t (v : Event.visit) =
  let cfg = t.config in
  let node =
    Prov_store.add_visit t.store ~engine_visit:v.Event.visit_id
      ~url:(Webmodel.Url.to_string v.Event.url)
      ~title:v.Event.title ~transition:v.Event.transition ~tab:v.Event.tab
      ~time:v.Event.time
  in
  (match v.Event.referrer with
  | None -> ()
  | Some r -> begin
    Hashtbl.replace t.referrer_of v.Event.visit_id r;
    match (edge_kind_for cfg v.Event.transition, Prov_store.visit_node t.store r) with
    | Some kind, Some rnode ->
      Prov_store.add_edge t.store ~src:rnode ~dst:node kind ~time:v.Event.time
    | _ -> ()
  end);
  (* Bookmark traversal edge. *)
  (match v.Event.via_bookmark with
  | Some b when cfg.record_bookmark_nodes -> begin
    match Prov_store.bookmark_node t.store b with
    | Some bnode ->
      Prov_store.add_edge t.store ~src:bnode ~dst:node Prov_edge.Bookmark_traversal
        ~time:v.Event.time
    | None -> ()
  end
  | _ -> ());
  if Transition.displayed v.Event.transition then begin
    (* Tab spawn: the first page of a tab descends from the opener's page. *)
    (match Hashtbl.find_opt t.pending_spawn v.Event.tab with
    | Some opener_visit when cfg.record_tab_spawn -> begin
      Hashtbl.remove t.pending_spawn v.Event.tab;
      match Prov_store.visit_node t.store opener_visit with
      | Some onode ->
        Prov_store.add_edge t.store ~src:onode ~dst:node Prov_edge.Tab_spawn
          ~time:v.Event.time
      | None -> ()
    end
    | Some _ -> Hashtbl.remove t.pending_spawn v.Event.tab
    | None -> ());
    Hashtbl.replace t.tab_current v.Event.tab v.Event.visit_id;
    (* Time relationships with currently displayed visits in other tabs. *)
    if cfg.record_time_edges then begin
      let partners =
        Hashtbl.fold
          (fun tab visit acc ->
            if tab <> v.Event.tab then
              match Prov_store.visit_node t.store visit with
              | Some vnode -> (Option.value ~default:0 (Hashtbl.find_opt t.open_order visit), vnode) :: acc
              | None -> acc
            else acc)
          t.tab_current []
      in
      let recent =
        List.filteri
          (fun i _ -> i < cfg.time_edge_fanout)
          (List.sort (fun (a, _) (b, _) -> Int.compare b a) partners)
      in
      (* Partners were opened earlier, so by the paper's rule they point
         at the newcomer. *)
      List.iter
        (fun (_, pnode) ->
          Prov_store.add_edge t.store ~src:pnode ~dst:node Prov_edge.Same_time
            ~time:v.Event.time)
        recent
    end;
    t.open_seq <- t.open_seq + 1;
    Hashtbl.replace t.open_order v.Event.visit_id t.open_seq;
    Time_index.add t.time_index ~node ~opened:v.Event.time
  end

let handle_event t event =
  let cfg = t.config in
  match (event : Event.t) with
  | Event.Visit v -> handle_visit t v
  | Event.Close { time; tab; visit_id } -> begin
    (match Hashtbl.find_opt t.tab_current tab with
    | Some current when current = visit_id -> Hashtbl.remove t.tab_current tab
    | _ -> ());
    match Prov_store.visit_node t.store visit_id with
    | Some node ->
      Time_index.close t.time_index ~node ~closed:time;
      if cfg.record_close_times then
        Prov_store.close_visit t.store ~engine_visit:visit_id ~time
    | None -> ()
  end
  | Event.Tab_opened { time = _; tab; opener_tab } -> begin
    match opener_tab with
    | None -> ()
    | Some opener -> begin
      match Hashtbl.find_opt t.tab_current opener with
      | Some opener_visit -> Hashtbl.replace t.pending_spawn tab opener_visit
      | None -> ()
    end
  end
  | Event.Tab_closed { time = _; tab } ->
    Hashtbl.remove t.tab_current tab;
    Hashtbl.remove t.pending_spawn tab
  | Event.Bookmark_added { time; bookmark_id; visit_id; url; title } ->
    if cfg.record_bookmark_nodes then begin
      let bnode =
        Prov_store.add_bookmark t.store ~engine_bookmark:bookmark_id
          ~url:(Webmodel.Url.to_string url) ~title ~time
      in
      match Prov_store.visit_node t.store visit_id with
      | Some vnode ->
        Prov_store.add_edge t.store ~src:vnode ~dst:bnode Prov_edge.Bookmarked_from ~time
      | None -> ()
    end
  | Event.Search { time; search_id = _; query; serp_visit } ->
    if cfg.record_search_nodes then begin
      let fresh_term = Prov_store.term_node t.store query = None in
      let term = Prov_store.add_search_term t.store ~query ~time in
      (match Prov_store.visit_node t.store serp_visit with
      | Some snode ->
        Prov_store.add_edge t.store ~src:term ~dst:snode Prov_edge.Search_query ~time
      | None -> ());
      (* The searched-from edge may only be added when the term node is
         freshly minted: a later visit pointing into an old term node
         would close a cycle — the §3.1 versioning problem.  Repeat
         searches keep their lineage through the SERP visit's own
         referrer edge instead. *)
      if fresh_term then begin
        match Hashtbl.find_opt t.referrer_of serp_visit with
        | Some r -> begin
          match Prov_store.visit_node t.store r with
          | Some rnode ->
            Prov_store.add_edge t.store ~src:rnode ~dst:term Prov_edge.Searched_from ~time
          | None -> ()
        end
        | None -> ()
      end
    end
  | Event.Download_started { time; download_id; visit_id; source_visit; url; target_path } ->
    if cfg.record_download_nodes then begin
      let dnode =
        Prov_store.add_download t.store ~engine_download:download_id
          ~source_url:(Webmodel.Url.to_string url) ~target_path ~time
      in
      (match Prov_store.visit_node t.store source_visit with
      | Some snode ->
        Prov_store.add_edge t.store ~src:snode ~dst:dnode Prov_edge.Download_source ~time
      | None -> ());
      match Prov_store.visit_node t.store visit_id with
      | Some fnode ->
        Prov_store.add_edge t.store ~src:fnode ~dst:dnode Prov_edge.Download_fetch ~time
      | None -> ()
    end
  | Event.Form_submitted { time; form_id; source_visit; result_visit; fields } ->
    if cfg.record_form_nodes then begin
      let fnode = Prov_store.add_form t.store ~engine_form:form_id ~fields ~time in
      (match Prov_store.visit_node t.store source_visit with
      | Some snode ->
        Prov_store.add_edge t.store ~src:snode ~dst:fnode Prov_edge.Form_source ~time
      | None -> ());
      match Prov_store.visit_node t.store result_visit with
      | Some rnode ->
        Prov_store.add_edge t.store ~src:fnode ~dst:rnode Prov_edge.Form_result ~time
      | None -> ()
    end

let handle t event =
  count_event event;
  handle_event t event

(* Batch ingest: feed a recorded stream in one call.  The mutations
   still flow through the store observer one by one (ordering and
   per-event semantics are untouched); when the observer is a
   group-commit WAL, the amortization happens there — this entry point
   exists so replay-style callers have a single seam to hand a whole
   batch to. *)
let handle_batch t events = List.iter (handle t) events

let make config =
  {
    config;
    store = Prov_store.create ();
    time_index = Time_index.create ();
    referrer_of = Hashtbl.create 4096;
    tab_current = Hashtbl.create 16;
    pending_spawn = Hashtbl.create 16;
    open_order = Hashtbl.create 4096;
    open_seq = 0;
  }

let attach ?(config = full) engine =
  let t = make config in
  Browser.Engine.subscribe engine (handle t);
  t

let observer ?(config = full) () =
  let t = make config in
  (t, handle t)

let config t = t.config
let store t = t.store
let time_index t = t.time_index
let visit_node t engine_id = Prov_store.visit_node t.store engine_id
