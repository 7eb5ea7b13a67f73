module R = Relstore

type bookmark_origin = {
  bookmark_title : string;
  page_url : string;
  reached_from_search : string option;
}

type download_origin = {
  download_target : string;
  source_url : string;
  referrer_url : string option;
}

(* Walk a visit's from_visit chain upward, returning the place ids seen,
   nearest first.  The chain stops wherever Firefox dropped the
   relationship. *)
let rec ancestor_places places ~budget visit_id acc =
  if budget <= 0 then List.rev acc
  else
    match Places_db.visit places visit_id with
    | None -> List.rev acc
    | Some row -> begin
      let acc = row.Places_db.place_id :: acc in
      match row.Places_db.from_visit with
      | None -> List.rev acc
      | Some parent -> ancestor_places places ~budget:(budget - 1) parent acc
    end

let search_input_for places place_id =
  (* moz_inputhistory rows attach typed inputs to a place (for SERPs,
     the query text). *)
  List.find_map
    (fun (pid, input, _uses) -> if pid = place_id then Some input else None)
    (Places_db.input_history places)

let bookmarks_reached_from_search places =
  List.map
    (fun (_, place_id, bookmark_title) ->
      let place = Places_db.place places place_id in
      (* First visit of the bookmarked page, then up the referrer chain
         looking for a place that has input history (a SERP). *)
      let first_visit =
        match
          List.sort
            (fun a b -> Int.compare a.Places_db.visit_date b.Places_db.visit_date)
            (Places_db.visits_of_place places place_id)
        with
        | v :: _ -> Some v
        | [] -> None
      in
      let reached_from_search =
        match first_visit with
        | None -> None
        | Some v ->
          List.find_map (search_input_for places)
            (ancestor_places places ~budget:32 v.Places_db.visit_id [])
      in
      { bookmark_title; page_url = place.Places_db.url; reached_from_search })
    (Places_db.bookmarks places)

let downloads_with_referrers places =
  List.map
    (fun (_, source, target, _time) ->
      (* Join back through the file's place to its fetch visits. *)
      let referrer_url =
        match Places_db.place_by_url places source with
        | None -> None
        | Some place ->
          List.find_map
            (fun v ->
              match v.Places_db.from_visit with
              | None -> None
              | Some parent -> begin
                match Places_db.visit places parent with
                | Some prow ->
                  Some (Places_db.place places prow.Places_db.place_id).Places_db.url
                | None -> None
              end)
            (Places_db.visits_of_place places place.Places_db.place_id)
      in
      { download_target = target; source_url = source; referrer_url })
    (Places_db.downloads places)

let dead_end_rate places =
  let hidden_places = Hashtbl.create 64 in
  List.iter
    (fun (p : Places_db.place) ->
      if p.Places_db.hidden then Hashtbl.replace hidden_places p.Places_db.place_id ())
    (Places_db.places places);
  let total = ref 0 and orphans = ref 0 in
  List.iter
    (fun v ->
      if not (Hashtbl.mem hidden_places v.Places_db.place_id) then begin
        incr total;
        if v.Places_db.from_visit = None then incr orphans
      end)
    (Places_db.visits places);
  if !total = 0 then 0.0 else float_of_int !orphans /. float_of_int !total
