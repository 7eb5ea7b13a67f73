(** Time-contextual history search (§2.3).

    "Find the wine page I was looking at while searching for plane
    tickets": rank pages matching the primary query by their temporal
    association with history items matching the context query.  Visits
    open simultaneously score highest; visits within a decaying time
    window still score. *)

type config = {
  candidate_limit : int;  (** text hits considered for the primary query *)
  context_limit : int;  (** history items matched for the context query *)
  proximity_tau : float;
      (** seconds; score of non-overlapping pairs decays as
          exp(-gap/tau) *)
  co_open_bonus : float;  (** multiplier for truly co-open pairs *)
}

val default_config : config

type result = {
  page : int;
  score : float;
  text_score : float;
  best_gap : int option;  (** seconds to the nearest context visit; 0 = co-open *)
}

type response = { results : result list; truncated : bool; elapsed_ms : float }

val search :
  ?budget:Query_budget.t ->
  ?limit:int ->
  Prov_text_index.t ->
  Time_index.t ->
  query:string ->
  context:string ->
  response
(** Pages matching [query], re-ranked by temporal proximity of their
    visits to visits of pages matching [context], as {!default_config}
    sets it. *)
