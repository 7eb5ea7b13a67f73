type t = {
  places : Places_db.t;
  mutable cache : Places_db.place list;
  (* moz_places epoch the snapshot was built at: [suggest] rebuilds
     whenever the store has moved on, so suggestions can never be
     served from a stale snapshot. *)
  mutable cache_epoch : int;
}

type suggestion = {
  place_id : int;
  url : string;
  title : string;
  score : float;
  adaptive : bool;
}

let load places =
  List.filter (fun (p : Places_db.place) -> not p.Places_db.hidden) (Places_db.places places)

let build places = { places; cache = load places; cache_epoch = Places_db.places_epoch places }

let refresh t =
  t.cache <- load t.places;
  t.cache_epoch <- Places_db.places_epoch t.places

let ensure_fresh t = if Places_db.places_epoch t.places <> t.cache_epoch then refresh t

let matches ~needle (p : Places_db.place) =
  let needle = String.lowercase_ascii needle in
  Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii p.Places_db.url)
  || Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii p.Places_db.title)

(* Adaptive hits: input-history rows whose stored input starts with (or
   equals) what the user has typed so far. *)
let adaptive_scores t ~typed =
  let typed = String.lowercase_ascii typed in
  let scores = Hashtbl.create 8 in
  List.iter
    (fun (place_id, input, uses) ->
      if Provkit_util.Strutil.is_prefix ~prefix:typed (String.lowercase_ascii input) then begin
        let prev = Option.value ~default:0.0 (Hashtbl.find_opt scores place_id) in
        Hashtbl.replace scores place_id (prev +. uses)
      end)
    (Places_db.input_history t.places);
  scores

let suggest ?(limit = 6) t typed =
  if String.trim typed = "" then []
  else begin
    ensure_fresh t;
    let adaptive = adaptive_scores t ~typed in
    let candidates = List.filter (matches ~needle:typed) t.cache in
    let scored =
      List.map
        (fun (p : Places_db.place) ->
          let bonus = Option.value ~default:0.0 (Hashtbl.find_opt adaptive p.Places_db.place_id) in
          {
            place_id = p.Places_db.place_id;
            url = p.Places_db.url;
            title = p.Places_db.title;
            (* Adaptive choices dominate; frecency orders the rest. *)
            score = (1000.0 *. bonus) +. max 0.0 p.Places_db.frecency;
            adaptive = bonus > 0.0;
          })
        candidates
    in
    List.filteri
      (fun i _ -> i < limit)
      (List.sort
         (fun a b ->
           let c = Float.compare b.score a.score in
           if c <> 0 then c else Int.compare a.place_id b.place_id)
         scored)
  end
