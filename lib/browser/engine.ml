module Web = Webmodel.Web_graph
module Page = Webmodel.Page_content
module Url = Webmodel.Url

type visit_info = {
  visit_id : int;
  page : int option;
  url : Url.t;
  title : string;
  tab : int;
  time : int;
  transition : Transition.t;
}

type t = {
  web : Web.t;
  search_engine : Webmodel.Search_engine.t;
  places : Places_db.t;
  tabs : Tabs.t;
  visits : (int, visit_info) Hashtbl.t;
  bookmark_list : (int, int option * Url.t * string) Hashtbl.t;
  mutable observers : (Event.t -> unit) list;
  mutable log : Event.t list;  (* newest first *)
  mutable next_visit : int;
  mutable next_bookmark : int;
  mutable next_download : int;
  mutable next_search : int;
  mutable next_form : int;
}

let create ~web ~search () =
  let t =
    {
      web;
      search_engine = search;
      places = Places_db.create ();
      tabs = Tabs.create ();
      visits = Hashtbl.create 1024;
      bookmark_list = Hashtbl.create 32;
      observers = [];
      log = [];
      next_visit = 1;
      next_bookmark = 1;
      next_download = 1;
      next_search = 1;
      next_form = 1;
    }
  in
  t.observers <- [ Places_db.apply_event t.places ];
  t

let subscribe t f = t.observers <- t.observers @ [ f ]

let m_events = Provkit_obs.Metrics.counter Provkit_obs.Names.browser_events

let emit t event =
  Provkit_obs.Metrics.incr m_events;
  t.log <- event :: t.log;
  List.iter (fun f -> f event) t.observers

let web t = t.web
let places t = t.places
let event_log t = List.rev t.log
let visit_info t id = Hashtbl.find t.visits id

let fresh_visit t = let id = t.next_visit in t.next_visit <- id + 1; id

let current_visit t tab =
  match Tabs.current_visit t.tabs tab with
  | None -> None
  | Some id -> Some (visit_info t id)

let open_tab t ~time ?opener () =
  let tab = Tabs.open_tab t.tabs ?opener () in
  emit t (Event.Tab_opened { time; tab; opener_tab = opener });
  tab

let close_displayed t ~time tab =
  match Tabs.current_visit t.tabs tab with
  | None -> ()
  | Some visit_id -> emit t (Event.Close { time; tab; visit_id })

let close_tab t ~time tab =
  close_displayed t ~time tab;
  Tabs.close_tab t.tabs tab;
  emit t (Event.Tab_closed { time; tab })

(* Record one visit event and remember its info. *)
let record_visit t ~time ~tab ~page ~url ~title ~transition ~referrer ~via_bookmark =
  let visit_id = fresh_visit t in
  let info = { visit_id; page; url; title; tab; time; transition } in
  Hashtbl.replace t.visits visit_id info;
  emit t
    (Event.Visit
       { Event.visit_id; time; tab; page; url; title; transition; referrer; via_bookmark });
  info

(* Fetch the embedded images of a page as Embed visits.  Embeds are not
   displayed standalone, so they do not become the tab's current visit
   and get no Close events. *)
let load_embeds t ~time ~tab ~(parent : visit_info) page_id =
  let page = Web.page t.web page_id in
  Array.iter
    (fun embed_id ->
      let embed = Web.page t.web embed_id in
      ignore
        (record_visit t ~time ~tab ~page:(Some embed_id) ~url:embed.Page.url
           ~title:embed.Page.title ~transition:Transition.Embed
           ~referrer:(Some parent.visit_id) ~via_bookmark:None))
    page.Page.embeds

(* Navigate a tab to a web page: close what was displayed, follow any
   redirect chain, land on the final page, pull its embeds. *)
let navigate_to_page t ~time ~tab ~transition ~via_bookmark target =
  let referrer = Option.map (fun (v : visit_info) -> v.visit_id) (current_visit t tab) in
  close_displayed t ~time tab;
  let chain = Web.resolve_redirects t.web target in
  let rec walk referrer transition = function
    | [] -> assert false
    | [ final ] ->
      let page = Web.page t.web final in
      let info =
        record_visit t ~time ~tab ~page:(Some final) ~url:page.Page.url
          ~title:page.Page.title ~transition ~referrer ~via_bookmark
      in
      info
    | hop :: rest ->
      let page = Web.page t.web hop in
      let info =
        record_visit t ~time ~tab ~page:(Some hop) ~url:page.Page.url
          ~title:page.Page.title ~transition ~referrer ~via_bookmark
      in
      walk (Some info.visit_id) Transition.Redirect_temporary rest
  in
  let info = walk referrer transition chain in
  Tabs.set_current_visit t.tabs tab info.visit_id;
  (match info.page with
  | Some pid -> load_embeds t ~time ~tab ~parent:info pid
  | None -> ());
  info

let visit_typed t ~time ~tab target =
  navigate_to_page t ~time ~tab ~transition:Transition.Typed ~via_bookmark:None target

let visit_link t ~time ~tab target =
  navigate_to_page t ~time ~tab ~transition:Transition.Link ~via_bookmark:None target

let visit_bookmark t ~time ~tab ~bookmark =
  match Hashtbl.find_opt t.bookmark_list bookmark with
  | None -> raise Not_found
  | Some (page, url, title) -> begin
    match page with
    | Some pid ->
      navigate_to_page t ~time ~tab ~transition:Transition.Bookmark
        ~via_bookmark:(Some bookmark) pid
    | None ->
      (* A bookmarked SERP: revisit the result URL directly. *)
      let referrer = Option.map (fun (v : visit_info) -> v.visit_id) (current_visit t tab) in
      close_displayed t ~time tab;
      let info =
        record_visit t ~time ~tab ~page:None ~url ~title
          ~transition:Transition.Bookmark ~referrer ~via_bookmark:(Some bookmark)
      in
      Tabs.set_current_visit t.tabs tab info.visit_id;
      info
  end

let reload t ~time ~tab =
  match current_visit t tab with
  | Some { page = Some page; _ } ->
    navigate_to_page t ~time ~tab ~transition:Transition.Reload ~via_bookmark:None page
  | Some { page = None; _ } -> invalid_arg "Engine.reload: cannot reload a result page"
  | None -> invalid_arg "Engine.reload: tab has no current page"

let search t ~time ~tab query =
  let url = Webmodel.Search_engine.serp_url query in
  let referrer = Option.map (fun (v : visit_info) -> v.visit_id) (current_visit t tab) in
  close_displayed t ~time tab;
  let info =
    record_visit t ~time ~tab ~page:None ~url
      ~title:(Printf.sprintf "Search: %s" query)
      ~transition:Transition.Typed ~referrer ~via_bookmark:None
  in
  Tabs.set_current_visit t.tabs tab info.visit_id;
  let search_id = t.next_search in
  t.next_search <- search_id + 1;
  emit t (Event.Search { time; search_id; query; serp_visit = info.visit_id });
  (info, Webmodel.Search_engine.search t.search_engine query)

let click_result t ~time ~tab target =
  navigate_to_page t ~time ~tab ~transition:Transition.Link ~via_bookmark:None target

let download t ~time ~tab ~file_page =
  let source =
    match current_visit t tab with
    | Some v -> v
    | None -> invalid_arg "Engine.download: tab has no current page"
  in
  let file = Web.page t.web file_page in
  (* The fetch is its own visit (TRANSITION_DOWNLOAD) but the tab keeps
     displaying the source page, exactly as in Firefox. *)
  let info =
    record_visit t ~time ~tab ~page:(Some file_page) ~url:file.Page.url
      ~title:file.Page.title ~transition:Transition.Download
      ~referrer:(Some source.visit_id) ~via_bookmark:None
  in
  let download_id = t.next_download in
  t.next_download <- download_id + 1;
  let target_path =
    match List.rev file.Page.url.Url.path with
    | name :: _ -> "/home/user/downloads/" ^ name
    | [] -> Printf.sprintf "/home/user/downloads/file%d" download_id
  in
  emit t
    (Event.Download_started
       {
         time;
         download_id;
         visit_id = info.visit_id;
         source_visit = source.visit_id;
         url = file.Page.url;
         target_path;
       });
  (download_id, info)

let add_bookmark t ~time ~tab =
  match current_visit t tab with
  | None -> invalid_arg "Engine.add_bookmark: tab has no current page"
  | Some v ->
    let bookmark_id = t.next_bookmark in
    t.next_bookmark <- bookmark_id + 1;
    Hashtbl.replace t.bookmark_list bookmark_id (v.page, v.url, v.title);
    emit t
      (Event.Bookmark_added
         { time; bookmark_id; visit_id = v.visit_id; url = v.url; title = v.title });
    bookmark_id

let bookmarks t =
  List.sort
    (fun (a, _, _) (b, _, _) -> Int.compare a b)
    (Hashtbl.fold (fun id (page, _, title) acc -> (id, page, title) :: acc) t.bookmark_list [])

let submit_form t ~time ~tab ~fields ~result_page =
  let source =
    match current_visit t tab with
    | Some v -> v
    | None -> invalid_arg "Engine.submit_form: tab has no current page"
  in
  let info =
    navigate_to_page t ~time ~tab ~transition:Transition.Form_submit ~via_bookmark:None
      result_page
  in
  let form_id = t.next_form in
  t.next_form <- form_id + 1;
  emit t
    (Event.Form_submitted
       { time; form_id; source_visit = source.visit_id; result_visit = info.visit_id; fields });
  info

let open_tabs t = Tabs.open_tabs t.tabs
