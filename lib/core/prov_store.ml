module Digraph = Provgraph.Digraph

type mutation =
  | Add_node of Prov_node.t
  | Add_edge of { src : int; dst : int; edge : Prov_edge.t }
  | Close_node of { id : int; time : int }

(* What the history queries ask of a page, kept current as its
   [Instance] edges arrive, in arrays indexed by node id: every visit
   instance, the ones that are not embeds or redirect hops, the ones the
   user saw, and whether any of its visits was typed.  [page_of_visit]
   holds -1 for a node that is no visit instance. *)
type facts = {
  mutable page_of_visit : int array;
  mutable visits : int array;
  mutable shown : int array;
  mutable displayed : int array;
  mutable typed : Bytes.t;  (* '\001' for a typed page *)
}

type t = {
  graph : (Prov_node.t, Prov_edge.t) Digraph.t;
  facts : facts;
  mutable next_id : int;
  page_by_url : (string, int) Hashtbl.t;
  visit_by_engine : (int, int) Hashtbl.t;
  bookmark_by_engine : (int, int) Hashtbl.t;
  download_by_engine : (int, int) Hashtbl.t;
  form_by_engine : (int, int) Hashtbl.t;
  term_by_query : (string, int) Hashtbl.t;
  mutable observer : (mutation -> unit) option;
}

let create () =
  {
    graph = Digraph.create ();
    facts =
      {
        page_of_visit = [||];
        visits = [||];
        shown = [||];
        displayed = [||];
        typed = Bytes.empty;
      };
    next_id = 1;
    page_by_url = Hashtbl.create 1024;
    visit_by_engine = Hashtbl.create 4096;
    bookmark_by_engine = Hashtbl.create 64;
    download_by_engine = Hashtbl.create 64;
    form_by_engine = Hashtbl.create 64;
    term_by_query = Hashtbl.create 256;
    observer = None;
  }

let set_observer t f = t.observer <- Some f
let notify t m = match t.observer with None -> () | Some f -> f m

let graph t = t.graph

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let insert t kind ~time =
  let id = fresh t in
  let node = { Prov_node.id; kind; time = Some time; close_time = None } in
  Digraph.add_node t.graph id node;
  notify t (Add_node node);
  id

let add_page t ~url ~title ~time =
  match Hashtbl.find_opt t.page_by_url url with
  | Some id ->
    (* Keep the freshest non-empty title on the page object. *)
    let n = Digraph.node t.graph id in
    (match n.Prov_node.kind with
    | Prov_node.Page { url = u; title = old } when title <> "" && title <> old ->
      let updated = { n with Prov_node.kind = Prov_node.Page { url = u; title } } in
      Digraph.add_node t.graph id updated;
      notify t (Add_node updated)
    | _ -> ());
    id
  | None ->
    let id = insert t (Prov_node.Page { url; title }) ~time in
    Hashtbl.replace t.page_by_url url id;
    id

(* Room for facts about every node id below [n]. *)
let reserve_facts f n =
  let have = Array.length f.visits in
  if n > have then begin
    let n = max n (2 * have) in
    let extend a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 have;
      b
    in
    f.page_of_visit <- extend f.page_of_visit (-1);
    f.visits <- extend f.visits 0;
    f.shown <- extend f.shown 0;
    f.displayed <- extend f.displayed 0;
    let typed = Bytes.make n '\000' in
    Bytes.blit f.typed 0 typed 0 have;
    f.typed <- typed
  end

(* Every edge enters the store through here, live or restored.  The
   store never removes a node or an edge and a visit's transition never
   changes, so facts folded in edge by edge stay exact. *)
let note_edge t ~src ~dst (e : Prov_edge.t) =
  Digraph.add_edge t.graph ~src ~dst e;
  if e.Prov_edge.kind = Prov_edge.Instance then begin
    let f = t.facts in
    reserve_facts f (Digraph.bound t.graph);
    (* A visit belongs to its first page: only there is it typed. *)
    let first = f.page_of_visit.(dst) < 0 in
    if first then f.page_of_visit.(dst) <- src;
    f.visits.(src) <- f.visits.(src) + 1;
    match (Digraph.node t.graph dst).Prov_node.kind with
    | Prov_node.Visit { transition; _ } ->
      if not (Browser.Transition.hidden transition) then f.shown.(src) <- f.shown.(src) + 1;
      if Browser.Transition.displayed transition then
        f.displayed.(src) <- f.displayed.(src) + 1;
      if first && transition = Browser.Transition.Typed then Bytes.set f.typed src '\001'
    | _ -> f.shown.(src) <- f.shown.(src) + 1
  end

let add_edge t ~src ~dst kind ~time =
  let edge = { Prov_edge.kind; time } in
  note_edge t ~src ~dst edge;
  notify t (Add_edge { src; dst; edge })

let add_visit t ~engine_visit ~url ~title ~transition ~tab ~time =
  let page = add_page t ~url ~title ~time in
  let id = insert t (Prov_node.Visit { url; title; transition; tab }) ~time in
  Hashtbl.replace t.visit_by_engine engine_visit id;
  add_edge t ~src:page ~dst:id Prov_edge.Instance ~time;
  id

let close_visit t ~engine_visit ~time =
  match Hashtbl.find_opt t.visit_by_engine engine_visit with
  | None -> ()
  | Some id ->
    let n = Digraph.node t.graph id in
    Digraph.add_node t.graph id { n with Prov_node.close_time = Some time };
    notify t (Close_node { id; time })

let add_bookmark t ~engine_bookmark ~url ~title ~time =
  let id = insert t (Prov_node.Bookmark { title; url }) ~time in
  Hashtbl.replace t.bookmark_by_engine engine_bookmark id;
  id

let add_download t ~engine_download ~source_url ~target_path ~time =
  let id = insert t (Prov_node.Download { source_url; target_path }) ~time in
  Hashtbl.replace t.download_by_engine engine_download id;
  id

let add_search_term t ~query ~time =
  let key = String.lowercase_ascii (String.trim query) in
  match Hashtbl.find_opt t.term_by_query key with
  | Some id -> id
  | None ->
    let id = insert t (Prov_node.Search_term { query = key }) ~time in
    Hashtbl.replace t.term_by_query key id;
    id

let add_form t ~engine_form ~fields ~time =
  let id = insert t (Prov_node.Form_submission { fields }) ~time in
  Hashtbl.replace t.form_by_engine engine_form id;
  id

let restore_node t (n : Prov_node.t) =
  Digraph.add_node t.graph n.Prov_node.id n;
  t.next_id <- max t.next_id (n.Prov_node.id + 1);
  match n.Prov_node.kind with
  | Prov_node.Page { url; _ } -> Hashtbl.replace t.page_by_url url n.Prov_node.id
  | Prov_node.Search_term { query } -> Hashtbl.replace t.term_by_query query n.Prov_node.id
  | Prov_node.Visit _ | Prov_node.Bookmark _ | Prov_node.Download _
  | Prov_node.Form_submission _ -> ()

let restore_edge = note_edge

(* Nodes ascending by id, then edges in adjacency order: the order
   [Prov_schema.to_database] assigns rowids in, so both it and
   [Prov_log.ops_of_store] walk this one stream. *)
let iter_contents t f =
  List.iter (fun id -> f (Add_node (Digraph.node t.graph id))) (Digraph.nodes t.graph);
  Digraph.iter_edges t.graph (fun src dst edge -> f (Add_edge { src; dst; edge }))

let node t id = Digraph.node t.graph id
let node_opt t id = Digraph.node_opt t.graph id
let page_of_url t url = Hashtbl.find_opt t.page_by_url url
let visit_node t engine_id = Hashtbl.find_opt t.visit_by_engine engine_id
let bookmark_node t engine_id = Hashtbl.find_opt t.bookmark_by_engine engine_id
let download_node t engine_id = Hashtbl.find_opt t.download_by_engine engine_id
let term_node t query = Hashtbl.find_opt t.term_by_query (String.lowercase_ascii (String.trim query))

(* Ids at or past the facts' length have no [Instance] edge. *)
let has_facts t id = id >= 0 && id < Array.length t.facts.visits

let page_of_visit t visit = if has_facts t visit then t.facts.page_of_visit.(visit) else -1

let visits_of_page t page =
  List.sort Int.compare
    (List.filter_map
       (fun (dst, (e : Prov_edge.t)) ->
         if e.Prov_edge.kind = Prov_edge.Instance then Some dst else None)
       (Digraph.out_edges t.graph page))

let page_visit_count t page = if has_facts t page then t.facts.visits.(page) else 0

let page_displayed_visit_count t page =
  if has_facts t page then t.facts.displayed.(page) else 0

let page_typed t page = has_facts t page && Bytes.get t.facts.typed page = '\001'

let page_hidden t page =
  has_facts t page
  && t.facts.visits.(page) > 0
  && t.facts.shown.(page) = 0
  && match node_opt t page with Some n -> Prov_node.is_page n | None -> false

let nodes_of_kind t pred = Digraph.filter_nodes t.graph (fun _ n -> pred n)
let node_count t = Digraph.node_count t.graph
let edge_count t = Digraph.edge_count t.graph

type stats = {
  nodes_total : int;
  edges_total : int;
  nodes_by_kind : (string * int) list;
  edges_by_kind : (string * int) list;
}

let stats t =
  let bump tbl key =
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
  in
  let nk = Hashtbl.create 8 and ek = Hashtbl.create 16 in
  Digraph.iter_nodes t.graph (fun _ n -> bump nk (Prov_node.kind_label n.Prov_node.kind));
  Digraph.iter_edges t.graph (fun _ _ e -> bump ek (Prov_edge.kind_name e.Prov_edge.kind));
  let sorted tbl =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  {
    nodes_total = node_count t;
    edges_total = edge_count t;
    nodes_by_kind = sorted nk;
    edges_by_kind = sorted ek;
  }

let pp_stats ppf t =
  let s = stats t in
  Format.fprintf ppf "provenance store: %d nodes, %d edges@." s.nodes_total s.edges_total;
  List.iter (fun (k, n) -> Format.fprintf ppf "  node %-12s %6d@." k n) s.nodes_by_kind;
  List.iter (fun (k, n) -> Format.fprintf ppf "  edge %-18s %6d@." k n) s.edges_by_kind
