module R = Relstore
module U = Webmodel.Url

(* The paper's headline queries as incremental materialized views: each
   one folds the capture-side [Event.t] stream into running state whose
   finalize equals the cold recomputation over the Places tables the
   same stream produced.  The equality is exact — including float
   results — because every fold replicates [Places_db.apply_event]'s
   arithmetic and ordering decisions (insertion-order visit lists,
   last-applied [last_visit_date], Embed visits uncounted, sticky first
   resolvable referrer) rather than approximating them.  The
   differential suite in test/test_matview.ml holds this at every
   stream prefix. *)

let seconds_per_day = 86_400

(* --- awesomebar frecency (top-N non-hidden places) ------------------ *)

type place_state = {
  ap_id : int;
  ap_url : string;
  mutable ap_hidden : bool;
  mutable ap_visit_count : int;
  mutable ap_last : int option;
  (* Newest first; reversed before sorting so the stable sort sees the
     same insertion order [Places_db.visits_of_place] returns. *)
  mutable ap_visits : (int * Transition.t) list;
}

type awesome_state = {
  aw_by_url : (string, place_state) Hashtbl.t;
  mutable aw_next_id : int;
}

let frecency_of p =
  match p.ap_visits with
  | [] -> 0.0
  | _ :: _ ->
    let now = Option.value ~default:0 p.ap_last in
    let recent =
      List.filteri
        (fun i _ -> i < 10)
        (List.sort (fun (da, _) (db, _) -> Int.compare db da) (List.rev p.ap_visits))
    in
    let points =
      Provkit_util.Stats.mean
        (List.map
           (fun (date, ty) ->
             Places_db.type_weight ty *. Places_db.recency_weight ~now ~visit_date:date)
           recent)
    in
    points *. float_of_int (max 1 p.ap_visit_count)

let awesome_place st ~url ~hidden =
  match Hashtbl.find_opt st.aw_by_url url with
  | Some p ->
    if p.ap_hidden && not hidden then p.ap_hidden <- false;
    p
  | None ->
    let p =
      {
        ap_id = st.aw_next_id;
        ap_url = url;
        ap_hidden = hidden;
        ap_visit_count = 0;
        ap_last = None;
        ap_visits = [];
      }
    in
    st.aw_next_id <- st.aw_next_id + 1;
    Hashtbl.replace st.aw_by_url url p;
    p

let awesome_fold st (ev : Event.t) =
  (match ev with
  | Event.Visit v ->
    let p =
      awesome_place st ~url:(U.to_string v.url) ~hidden:(Transition.hidden v.transition)
    in
    if v.transition <> Transition.Embed then p.ap_visit_count <- p.ap_visit_count + 1;
    p.ap_last <- Some v.time;
    p.ap_visits <- (v.time, v.transition) :: p.ap_visits
  | Event.Bookmark_added b ->
    ignore (awesome_place st ~url:(U.to_string b.url) ~hidden:false)
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Search _
  | Event.Download_started _ | Event.Form_submitted _ -> ());
  st

let rank_frecency (ia, _, fa) (ib, _, fb) =
  let c = Float.compare fb fa in
  if c <> 0 then c else Int.compare ia ib

let awesome_finalize ~top_n st =
  let all =
    Hashtbl.fold
      (fun _ p acc -> if p.ap_hidden then acc else (p.ap_id, p.ap_url, frecency_of p) :: acc)
      st.aw_by_url []
  in
  List.filteri (fun i _ -> i < top_n) (List.sort rank_frecency all)

let frecency_spec ~top_n : (Event.t, awesome_state, (int * string * float) list) R.Matview.spec =
  {
    R.Matview.name = "awesomebar_frecency";
    init = (fun () -> { aw_by_url = Hashtbl.create 256; aw_next_id = 1 });
    fold = awesome_fold;
    finalize = awesome_finalize ~top_n;
  }

let cold_frecency_top ~top_n places =
  let all =
    List.filter_map
      (fun (p : Places_db.place) ->
        if p.Places_db.hidden then None
        else Some (p.Places_db.place_id, p.Places_db.url, p.Places_db.frecency))
      (Places_db.places places)
  in
  List.filteri (fun i _ -> i < top_n) (List.sort rank_frecency all)

(* --- per-host visit counts ------------------------------------------ *)

type host_state = (string, int) Hashtbl.t

let rank_counts (ka, na) (kb, nb) =
  let c = Int.compare nb na in
  if c <> 0 then c else String.compare ka kb

let host_fold (st : host_state) (ev : Event.t) =
  (match ev with
  | Event.Visit v ->
    let host = U.host v.url in
    Hashtbl.replace st host (1 + Option.value ~default:0 (Hashtbl.find_opt st host))
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Bookmark_added _
  | Event.Search _ | Event.Download_started _ | Event.Form_submitted _ -> ());
  st

let host_spec : (Event.t, host_state, (string * int) list) R.Matview.spec =
  {
    R.Matview.name = "host_visits";
    init = (fun () -> Hashtbl.create 64);
    fold = host_fold;
    finalize =
      (fun st -> List.sort rank_counts (Hashtbl.fold (fun k n acc -> (k, n) :: acc) st []));
  }

let cold_host_visits places =
  let counts = Hashtbl.create 64 in
  List.iter
    (fun (v : Places_db.visit_row) ->
      let url = (Places_db.place places v.Places_db.place_id).Places_db.url in
      let host = U.host (U.of_string url) in
      Hashtbl.replace counts host (1 + Option.value ~default:0 (Hashtbl.find_opt counts host)))
    (Places_db.visits places);
  List.sort rank_counts (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

(* --- download-chain rollup (downloads per referrer host) ------------ *)

type download_state = {
  (* visit id -> the visited url (its place's url). *)
  dl_visit_url : (int, string) Hashtbl.t;
  (* url -> referrer place url, set by the first visit of [url] whose
     kept referrer resolves — sticky, exactly like the cold query's
     rowid-ordered [find_map] over the place's visits. *)
  dl_url_referrer : (string, string) Hashtbl.t;
  mutable dl_sources : string list;
}

let direct_key = "(direct)"

let download_fold st (ev : Event.t) =
  (match ev with
  | Event.Visit v ->
    let url = U.to_string v.url in
    Hashtbl.replace st.dl_visit_url v.visit_id url;
    let from_visit = if Places_db.firefox_keeps_referrer v.transition then v.referrer else None in
    (match from_visit with
    | Some parent when not (Hashtbl.mem st.dl_url_referrer url) -> begin
      match Hashtbl.find_opt st.dl_visit_url parent with
      | Some parent_url -> Hashtbl.replace st.dl_url_referrer url parent_url
      | None -> ()
    end
    | Some _ | None -> ())
  | Event.Download_started d -> st.dl_sources <- U.to_string d.url :: st.dl_sources
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Bookmark_added _
  | Event.Search _ | Event.Form_submitted _ -> ());
  st

let referrer_host = function
  | None -> direct_key
  | Some url -> U.host (U.of_string url)

let download_finalize st =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun source ->
      let key = referrer_host (Hashtbl.find_opt st.dl_url_referrer source) in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    st.dl_sources;
  List.sort rank_counts (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

let download_spec : (Event.t, download_state, (string * int) list) R.Matview.spec =
  {
    R.Matview.name = "download_referrers";
    init =
      (fun () ->
        {
          dl_visit_url = Hashtbl.create 256;
          dl_url_referrer = Hashtbl.create 64;
          dl_sources = [];
        });
    fold = download_fold;
    finalize = download_finalize;
  }

let cold_download_referrers places =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun (o : Places_queries.download_origin) ->
      let key = referrer_host o.Places_queries.referrer_url in
      Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
    (Places_queries.downloads_with_referrers places);
  List.sort rank_counts (Hashtbl.fold (fun k n acc -> (k, n) :: acc) counts [])

(* --- windowed last-7-day visit count -------------------------------- *)

(* A ring of 7 day buckets.  The watermark day only moves forward (on
   any event, via [Event.time]); moving it zeroes the buckets whose day
   slots the window just entered, which is the whole expiry story —
   nothing is ever rescanned.  Clock-skewed (out-of-order) visits land
   in their own day's bucket when that day is still inside the window
   and are dropped when it already expired, matching what the cold
   count over [visit_date] sees. *)
type window_state = {
  wd_buckets : int array;
  mutable wd_day : int;
}

let window_advance st day =
  if day > st.wd_day then begin
    if day - st.wd_day >= 7 then Array.fill st.wd_buckets 0 7 0
    else
      for d = st.wd_day + 1 to day do
        st.wd_buckets.(d mod 7) <- 0
      done;
    st.wd_day <- day
  end

let window_fold st (ev : Event.t) =
  window_advance st (Event.time ev / seconds_per_day);
  (match ev with
  | Event.Visit v ->
    let day = v.time / seconds_per_day in
    if day >= st.wd_day - 6 then st.wd_buckets.(day mod 7) <- st.wd_buckets.(day mod 7) + 1
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Bookmark_added _
  | Event.Search _ | Event.Download_started _ | Event.Form_submitted _ -> ());
  st

let window_spec : (Event.t, window_state, int) R.Matview.spec =
  {
    R.Matview.name = "recent_visits_7d";
    init = (fun () -> { wd_buckets = Array.make 7 0; wd_day = 0 });
    fold = window_fold;
    finalize = (fun st -> Array.fold_left ( + ) 0 st.wd_buckets);
  }

let cold_recent_visits ~now places =
  let day = now / seconds_per_day in
  List.length
    (List.filter
       (fun (v : Places_db.visit_row) ->
         let d = v.Places_db.visit_date / seconds_per_day in
         d >= day - 6 && d <= day)
       (Places_db.visits places))

(* --- per-place visit counts (Query_exec fast-path backing) ---------- *)

(* Mirrors the url -> place_id assignment [Places_db.find_or_create_place]
   makes (creation order, ids from 1; visits and bookmarks create
   places, nothing else does), so the group keys line up with
   moz_historyvisits.place_id without reading the table. *)
type place_visits_state = {
  pv_ids : (string, int) Hashtbl.t;
  mutable pv_next_id : int;
  pv_counts : (int, int) Hashtbl.t;
  mutable pv_total : int;
}

let pv_place st url =
  match Hashtbl.find_opt st.pv_ids url with
  | Some id -> id
  | None ->
    let id = st.pv_next_id in
    st.pv_next_id <- id + 1;
    Hashtbl.replace st.pv_ids url id;
    id

let place_visits_fold st (ev : Event.t) =
  (match ev with
  | Event.Visit v ->
    let id = pv_place st (U.to_string v.url) in
    Hashtbl.replace st.pv_counts id (1 + Option.value ~default:0 (Hashtbl.find_opt st.pv_counts id));
    st.pv_total <- st.pv_total + 1
  | Event.Bookmark_added b -> ignore (pv_place st (U.to_string b.url))
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Search _
  | Event.Download_started _ | Event.Form_submitted _ -> ());
  st

(* The same comparator [Query_exec.group_count] applies to its output. *)
let rank_groups (ka, na) (kb, nb) =
  let c = Int.compare nb na in
  if c <> 0 then c else R.Value.compare ka kb

let place_visits_finalize st =
  ( st.pv_total,
    List.sort rank_groups
      (Hashtbl.fold (fun id n acc -> (R.Value.Int id, n) :: acc) st.pv_counts []) )

let place_visits_spec :
    (Event.t, place_visits_state, int * (R.Value.t * int) list) R.Matview.spec =
  {
    R.Matview.name = "place_visits";
    init =
      (fun () ->
        {
          pv_ids = Hashtbl.create 256;
          pv_next_id = 1;
          pv_counts = Hashtbl.create 256;
          pv_total = 0;
        });
    fold = place_visits_fold;
    finalize = place_visits_finalize;
  }

let cold_place_visits places =
  let counts = Hashtbl.create 256 in
  let total = ref 0 in
  List.iter
    (fun (v : Places_db.visit_row) ->
      incr total;
      let id = v.Places_db.place_id in
      Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
    (Places_db.visits places);
  ( !total,
    List.sort rank_groups
      (Hashtbl.fold (fun id n acc -> (R.Value.Int id, n) :: acc) counts []) )

(* --- the assembled view set ----------------------------------------- *)

type t = {
  places : Places_db.t;
  registry : Event.t R.Matview.t;
  v_frecency : (Event.t, awesome_state, (int * string * float) list) R.Matview.handle;
  v_hosts : (Event.t, host_state, (string * int) list) R.Matview.handle;
  v_downloads : (Event.t, download_state, (string * int) list) R.Matview.handle;
  v_recent : (Event.t, window_state, int) R.Matview.handle;
  v_place_visits : (Event.t, place_visits_state, int * (R.Value.t * int) list) R.Matview.handle;
  seen_urls : R.Remember.t;
  mutable revisits : int;
  mutable first_visits : int;
  mutable now : int;
  (* moz_historyvisits epoch stamped after the last ingest; the
     Query_exec sources compare it against the live epoch so a direct
     table mutation that bypassed [ingest] sends readers back cold. *)
  mutable stamped_epoch : int;
  (* Newest first; [refresh] refolds it and recovery replaces it. *)
  mutable event_log : Event.t list;
}

let visits_table t = R.Database.table (Places_db.database t.places) "moz_historyvisits"

let register_query_sources t =
  let table = visits_table t in
  let fresh () = R.Table.epoch table = t.stamped_epoch in
  R.Query_exec.register_matview_source ~table ~shape:R.Query_exec.Count ~fresh
    ~payload:(fun () -> R.Query_cache.Count (fst (R.Matview.value t.v_place_visits)));
  R.Query_exec.register_matview_source ~table ~shape:(R.Query_exec.Group_count "place_id") ~fresh
    ~payload:(fun () -> R.Query_cache.Groups (snd (R.Matview.value t.v_place_visits)))

let create ?(top_n = 10) ?(expected_urls = 4096) places =
  let registry = R.Matview.create () in
  let v_frecency = R.Matview.register registry (frecency_spec ~top_n) in
  let v_hosts = R.Matview.register registry host_spec in
  let v_downloads = R.Matview.register registry download_spec in
  let v_recent = R.Matview.register registry window_spec in
  let v_place_visits = R.Matview.register registry place_visits_spec in
  let t =
    {
      places;
      registry;
      v_frecency;
      v_hosts;
      v_downloads;
      v_recent;
      v_place_visits;
      seen_urls = R.Remember.create ~expected:expected_urls ();
      revisits = 0;
      first_visits = 0;
      now = 0;
      stamped_epoch = 0;
      event_log = [];
    }
  in
  t.stamped_epoch <- R.Table.epoch (visits_table t);
  register_query_sources t;
  t

let ingest t ev =
  Places_db.apply_event t.places ev;
  (match ev with
  | Event.Visit v ->
    if R.Remember.remember t.seen_urls (U.to_string v.url) then t.revisits <- t.revisits + 1
    else t.first_visits <- t.first_visits + 1
  | Event.Close _ | Event.Tab_opened _ | Event.Tab_closed _ | Event.Bookmark_added _
  | Event.Search _ | Event.Download_started _ | Event.Form_submitted _ -> ());
  R.Matview.feed t.registry ev;
  t.now <- max t.now (Event.time ev);
  t.event_log <- ev :: t.event_log;
  t.stamped_epoch <- R.Table.epoch (visits_table t)

let ingest_batch t evs = List.iter (ingest t) evs

let refresh t =
  R.Matview.rebuild t.registry (List.rev t.event_log);
  t.stamped_epoch <- R.Table.epoch (visits_table t)

let places t = t.places
let registry t = t.registry
let now t = t.now
let events_ingested t = List.length t.event_log

let frecency_top t = R.Matview.value t.v_frecency
let host_visits t = R.Matview.value t.v_hosts
let download_referrers t = R.Matview.value t.v_downloads
let recent_visits t = R.Matview.value t.v_recent
let place_visit_groups t = R.Matview.value t.v_place_visits

let status t = R.Matview.status t.registry
let revisit_stats t = (t.first_visits, t.revisits)
let seen_urls t = t.seen_urls
