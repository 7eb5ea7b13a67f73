(** The baseline "smart location bar" (§1): history-search-based
    autocompletion as Firefox 3 shipped it.

    Suggestions are non-hidden places whose URL or title contains the
    typed string (case-insensitive), ranked by the adaptive input
    history first — places the user previously picked for this input —
    then by frecency.  This is the feature whose heavy use, the paper
    notes ironically, makes Firefox's own metadata *sparser* (§3.2);
    the provenance-aware counterpart is {!Core.Suggest}. *)

type t

type suggestion = {
  place_id : int;
  url : string;
  title : string;
  score : float;
  adaptive : bool;  (** matched through input history *)
}

val build : Places_db.t -> t

val refresh : t -> unit
(** Force a snapshot rebuild.  Normally unnecessary: {!suggest}
    validates the snapshot against {!Places_db.places_epoch} and
    rebuilds by itself when the store has changed. *)

val suggest : ?limit:int -> t -> string -> suggestion list
(** Suggestions for the typed string ([limit] defaults to 6, like the
    awesome bar's dropdown).  Empty input yields nothing.  Always
    reflects the current store: a stale snapshot (the store mutated
    since it was built) is rebuilt before matching. *)
