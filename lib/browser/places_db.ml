module R = Relstore

let vint n = R.Value.Int n
let vtext s = R.Value.Text s
let vreal f = R.Value.Real f
let vbool b = R.Value.Bool b
let vnull = R.Value.Null
let vint_opt = function None -> R.Value.Null | Some n -> R.Value.Int n

type t = { db : R.Database.t }

let places_schema =
  R.Schema.make ~name:"moz_places"
    [
      R.Column.make "url" R.Value.Ttext;
      R.Column.make ~nullable:true "title" R.Value.Ttext;
      R.Column.make "visit_count" R.Value.Tint;
      R.Column.make "frecency" R.Value.Treal;
      R.Column.make ~nullable:true "last_visit_date" R.Value.Tint;
      R.Column.make "hidden" R.Value.Tbool;
    ]

(* Visit and download ids are the rowids (SQLite INTEGER PRIMARY KEY
   aliases the rowid): the engine assigns both contiguously from 1 and
   every event inserts exactly one row, so they coincide — asserted at
   insert time. *)
let visits_schema =
  R.Schema.make ~name:"moz_historyvisits"
    [
      R.Column.make ~nullable:true "from_visit" R.Value.Tint;
      R.Column.make "place_id" R.Value.Tint;
      R.Column.make "visit_date" R.Value.Tint;
      R.Column.make "visit_type" R.Value.Tint;
    ]

let bookmarks_schema =
  R.Schema.make ~name:"moz_bookmarks"
    [
      R.Column.make "place_id" R.Value.Tint;
      R.Column.make "title" R.Value.Ttext;
      R.Column.make "date_added" R.Value.Tint;
    ]

let input_schema =
  R.Schema.make ~name:"moz_inputhistory"
    [
      R.Column.make "place_id" R.Value.Tint;
      R.Column.make "input" R.Value.Ttext;
      R.Column.make "use_count" R.Value.Treal;
    ]

let annos_schema =
  R.Schema.make ~name:"moz_annos"
    [
      R.Column.make "place_id" R.Value.Tint;
      R.Column.make "name" R.Value.Ttext;
      R.Column.make "content" R.Value.Ttext;
    ]

let downloads_schema =
  R.Schema.make ~name:"moz_downloads"
    [
      R.Column.make "name" R.Value.Ttext;
      R.Column.make "source" R.Value.Ttext;
      R.Column.make "target" R.Value.Ttext;
      R.Column.make "start_time" R.Value.Tint;
      R.Column.make ~nullable:true "end_time" R.Value.Tint;
      R.Column.make "state" R.Value.Tint;
    ]

let formhistory_schema =
  R.Schema.make ~name:"moz_formhistory"
    [
      R.Column.make "fieldname" R.Value.Ttext;
      R.Column.make "value" R.Value.Ttext;
      R.Column.make "times_used" R.Value.Tint;
      R.Column.make "last_used" R.Value.Tint;
    ]

let create () =
  let db = R.Database.create ~name:"places" in
  let places = R.Database.create_table db places_schema in
  R.Table.add_index ~unique:true places ~name:"places_url" ~columns:[ "url" ];
  let visits = R.Database.create_table db visits_schema in
  R.Table.add_index visits ~name:"visits_place" ~columns:[ "place_id" ];
  R.Table.add_index visits ~name:"visits_date" ~columns:[ "visit_date" ];
  let bookmarks = R.Database.create_table db bookmarks_schema in
  R.Table.add_index bookmarks ~name:"bookmarks_place" ~columns:[ "place_id" ];
  let input = R.Database.create_table db input_schema in
  R.Table.add_index input ~name:"input_place" ~columns:[ "place_id" ];
  let _annos = R.Database.create_table db annos_schema in
  let _downloads = R.Database.create_table db downloads_schema in
  let form = R.Database.create_table db formhistory_schema in
  R.Table.add_index form ~name:"form_field" ~columns:[ "fieldname" ];
  { db }

let database t = t.db
let table t name = R.Database.table t.db name

(* The moz_places modification epoch: every visit, bookmark or title
   refresh lands in moz_places, so features that snapshot place rows
   (the awesomebar) can validate their snapshot with one integer
   compare. *)
let places_epoch t = R.Table.epoch (table t "moz_places")

type place = {
  place_id : int;
  url : string;
  title : string;
  visit_count : int;
  frecency : float;
  last_visit_date : int option;
  hidden : bool;
}

type visit_row = {
  visit_id : int;
  from_visit : int option;
  place_id : int;
  visit_date : int;
  visit_type : Transition.t;
}

let place_of_row rowid row =
  let s = places_schema in
  {
    place_id = rowid;
    url = R.Row.text s row "url";
    title = Option.value ~default:"" (R.Row.text_opt s row "title");
    visit_count = R.Row.int s row "visit_count";
    frecency = R.Row.real s row "frecency";
    last_visit_date = R.Row.int_opt s row "last_visit_date";
    hidden = R.Row.bool s row "hidden";
  }

let visit_of_row rowid row =
  let s = visits_schema in
  {
    visit_id = rowid;
    from_visit = R.Row.int_opt s row "from_visit";
    place_id = R.Row.int s row "place_id";
    visit_date = R.Row.int s row "visit_date";
    visit_type = Transition.of_code (R.Row.int s row "visit_type");
  }

let place_count t = R.Table.row_count (table t "moz_places")
let visit_count t = R.Table.row_count (table t "moz_historyvisits")

let place t place_id = place_of_row place_id (R.Table.get (table t "moz_places") place_id)

let place_by_url t url =
  Option.map
    (fun (rowid, row) -> place_of_row rowid row)
    (R.Table.find_one_by (table t "moz_places") ~columns:[ "url" ] [ vtext url ])

let places t = List.map (fun (rowid, row) -> place_of_row rowid row) (R.Table.rows (table t "moz_places"))

let visits t =
  List.map (fun (rowid, row) -> visit_of_row rowid row) (R.Table.rows (table t "moz_historyvisits"))

let visits_of_place t place_id =
  List.map
    (fun (rowid, row) -> visit_of_row rowid row)
    (R.Table.find_by (table t "moz_historyvisits") ~columns:[ "place_id" ] [ vint place_id ])

let visit t visit_id =
  Option.map
    (fun row -> visit_of_row visit_id row)
    (R.Table.get_opt (table t "moz_historyvisits") visit_id)

let bookmarks t =
  List.map
    (fun (rowid, row) ->
      (rowid, R.Row.int bookmarks_schema row "place_id", R.Row.text bookmarks_schema row "title"))
    (R.Table.rows (table t "moz_bookmarks"))

let downloads t =
  List.map
    (fun (rowid, row) ->
      ( rowid,
        R.Row.text downloads_schema row "source",
        R.Row.text downloads_schema row "target",
        R.Row.int downloads_schema row "start_time" ))
    (R.Table.rows (table t "moz_downloads"))

let input_history t =
  List.map
    (fun (_, row) ->
      ( R.Row.int input_schema row "place_id",
        R.Row.text input_schema row "input",
        R.Row.real input_schema row "use_count" ))
    (R.Table.rows (table t "moz_inputhistory"))

(* Simplified Places frecency: average (type weight x recency weight)
   over the ten most recent visits, scaled by total visit count. *)
let type_weight = function
  | Transition.Typed -> 2.0
  | Transition.Bookmark -> 1.4
  | Transition.Link -> 1.2
  | Transition.Form_submit -> 1.0
  | Transition.Framed_link -> 0.8
  | Transition.Download -> 0.6
  | Transition.Reload
  | Transition.Embed | Transition.Redirect_permanent | Transition.Redirect_temporary -> 0.0

let recency_weight ~now ~visit_date =
  let days = float_of_int (now - visit_date) /. 86_400.0 in
  if days <= 4.0 then 1.0
  else if days <= 14.0 then 0.7
  else if days <= 31.0 then 0.5
  else if days <= 90.0 then 0.3
  else 0.1

let recompute_frecency t place_id =
  let tbl = table t "moz_places" in
  let row = R.Table.get tbl place_id in
  let p = place_of_row place_id row in
  let now = Option.value ~default:0 p.last_visit_date in
  let recent =
    List.filteri
      (fun i _ -> i < 10)
      (List.sort
         (fun a b -> Int.compare b.visit_date a.visit_date)
         (visits_of_place t place_id))
  in
  match recent with
  | [] -> R.Table.update_field tbl place_id "frecency" (vreal 0.0)
  | _ ->
    let points =
      Provkit_util.Stats.mean
        (List.map
           (fun v ->
             type_weight v.visit_type *. recency_weight ~now ~visit_date:v.visit_date)
           recent)
    in
    R.Table.update_field tbl place_id "frecency"
      (vreal (points *. float_of_int (max 1 p.visit_count)))

let find_or_create_place t ~url ~title ~hidden =
  let tbl = table t "moz_places" in
  match place_by_url t url with
  | Some p ->
    (* A page visited as top-level content stops being hidden, and a
       non-empty title refreshes a stale one — both Places behaviours. *)
    if p.hidden && not hidden then R.Table.update_field tbl p.place_id "hidden" (vbool false);
    if title <> "" && title <> p.title then
      R.Table.update_field tbl p.place_id "title" (vtext title);
    p.place_id
  | None ->
    R.Table.insert_fields tbl
      [
        ("url", vtext url);
        ("title", (if title = "" then vnull else vtext title));
        ("visit_count", vint 0);
        ("frecency", vreal 0.0);
        ("last_visit_date", vnull);
        ("hidden", vbool hidden);
      ]

(* Firefox keeps the causal chain only for transitions the renderer
   itself performs; explicit user navigation (typed, bookmark) loses it.
   This asymmetry is the paper's central §3.2 observation. *)
let firefox_keeps_referrer = function
  | Transition.Link | Transition.Embed | Transition.Framed_link
  | Transition.Redirect_permanent | Transition.Redirect_temporary
  | Transition.Form_submit | Transition.Download | Transition.Reload -> true
  | Transition.Typed | Transition.Bookmark -> false

let record_visit t (v : Event.visit) =
  let url = Webmodel.Url.to_string v.url in
  let place_id =
    find_or_create_place t ~url ~title:v.title ~hidden:(Transition.hidden v.transition)
  in
  let places_tbl = table t "moz_places" in
  let prow = R.Table.get places_tbl place_id in
  let counted = v.transition <> Transition.Embed in
  if counted then
    R.Table.update_field places_tbl place_id "visit_count"
      (vint (R.Row.int places_schema prow "visit_count" + 1));
  R.Table.update_field places_tbl place_id "last_visit_date" (vint v.time);
  let from_visit = if firefox_keeps_referrer v.transition then v.referrer else None in
  let rowid =
    R.Table.insert_fields (table t "moz_historyvisits")
      [
        ("from_visit", vint_opt from_visit);
        ("place_id", vint place_id);
        ("visit_date", vint v.time);
        ("visit_type", vint (Transition.to_code v.transition));
      ]
  in
  assert (rowid = v.visit_id);
  recompute_frecency t place_id

let record_input t ~place_id ~input ~time:_ =
  let tbl = table t "moz_inputhistory" in
  match
    R.Table.find_one_by tbl ~columns:[ "place_id"; "input" ] [ vint place_id; vtext input ]
  with
  | Some (rowid, row) ->
    R.Table.update_field tbl rowid "use_count"
      (vreal (R.Row.real input_schema row "use_count" +. 1.0))
  | None ->
    ignore
      (R.Table.insert_fields tbl
         [ ("place_id", vint place_id); ("input", vtext input); ("use_count", vreal 1.0) ])

let record_input_choice t ~place_id ~input = record_input t ~place_id ~input ~time:0

let apply_event t event =
  match (event : Event.t) with
  | Event.Visit v -> record_visit t v
  | Event.Close _ -> ()  (* Firefox has no notion of a page close. *)
  | Event.Tab_opened _ | Event.Tab_closed _ -> ()  (* nor of tabs in history *)
  | Event.Bookmark_added { time; bookmark_id = _; visit_id = _; url; title } ->
    let url = Webmodel.Url.to_string url in
    let place_id = find_or_create_place t ~url ~title ~hidden:false in
    ignore
      (R.Table.insert_fields (table t "moz_bookmarks")
         [ ("place_id", vint place_id); ("title", vtext title); ("date_added", vint time) ])
  | Event.Search { time; search_id = _; query; serp_visit } -> begin
    (* The query text lands in input history against the SERP's place —
       present, but disconnected from the result clicks (§3.3). *)
    match visit t serp_visit with
    | Some vr -> record_input t ~place_id:vr.place_id ~input:query ~time
    | None -> ()
  end
  | Event.Download_started { time; download_id; visit_id; source_visit = _; url; target_path } ->
    let source = Webmodel.Url.to_string url in
    let name =
      match List.rev url.Webmodel.Url.path with
      | last :: _ -> last
      | [] -> target_path
    in
    let rowid =
      R.Table.insert_fields (table t "moz_downloads")
         [
           ("name", vtext name);
           ("source", vtext source);
           ("target", vtext target_path);
           ("start_time", vint time);
           ("end_time", vint (time + 2));
           ("state", vint 1);
         ]
    in
    assert (rowid = download_id);
    (match visit t visit_id with
    | Some vr ->
      ignore
        (R.Table.insert_fields (table t "moz_annos")
           [
             ("place_id", vint vr.place_id);
             ("name", vtext "downloads/destinationFileURI");
             ("content", vtext ("file://" ^ target_path));
           ])
    | None -> ())
  | Event.Form_submitted { time; form_id = _; source_visit = _; result_visit = _; fields } ->
    let tbl = table t "moz_formhistory" in
    List.iter
      (fun (field, value) ->
        match
          R.Table.find_by tbl ~columns:[ "fieldname" ] [ vtext field ]
          |> List.find_opt (fun (_, row) -> R.Row.text formhistory_schema row "value" = value)
        with
        | Some (rowid, row) ->
          R.Table.update_field tbl rowid "times_used"
            (vint (R.Row.int formhistory_schema row "times_used" + 1));
          R.Table.update_field tbl rowid "last_used" (vint time)
        | None ->
          ignore
            (R.Table.insert_fields tbl
               [
                 ("fieldname", vtext field);
                 ("value", vtext value);
                 ("times_used", vint 1);
                 ("last_used", vint time);
               ]))
      fields
