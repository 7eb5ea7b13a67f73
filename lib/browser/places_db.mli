(** The baseline history store: a faithful model of Firefox 3's Places
    schema (plus the era's separate downloads table) over {!Relstore}.

    Fidelity notes, all of which the paper calls out and the provenance
    layer fixes:
    - visits store [from_visit] only for link/redirect/embed chains;
      typed and bookmark navigations get NULL — "most browsers will not
      record a relationship" (§3.2);
    - nothing records when a page stopped being displayed — "from the
      perspective of Firefox history, every page is always open" (§3.2);
    - the query behind a SERP visit is not connected to result clicks —
      search terms live in [moz_inputhistory], disconnected from lineage
      (§3.3);
    - bookmarks/downloads live in their own tables, joined to history
      only through URLs — the heterogeneity §3.3 complains about. *)

type t

val create : unit -> t

val apply_event : t -> Event.t -> unit
(** Consume one browser event, updating the tables the way Firefox
    would (including dropping what Firefox drops). *)

val places_epoch : t -> int
(** The [moz_places] table's modification epoch ({!Relstore.Table.epoch}):
    bumped by every visit, bookmark, hidden-flag or title change, so a
    snapshot of place rows can be validated with one integer compare. *)

val database : t -> Relstore.Database.t
(** The underlying relational database (for size accounting and ad-hoc
    queries). *)

(** {2 Typed accessors used by the baseline features} *)

type place = {
  place_id : int;
  url : string;
  title : string;
  visit_count : int;
  frecency : float;
  last_visit_date : int option;
  hidden : bool;  (** embeds and redirect hops, like Firefox *)
}

type visit_row = {
  visit_id : int;
  from_visit : int option;
  place_id : int;
  visit_date : int;
  visit_type : Transition.t;
}

val place_count : t -> int
val visit_count : t -> int
val place : t -> int -> place
val place_by_url : t -> string -> place option
val places : t -> place list
val visits : t -> visit_row list
val visits_of_place : t -> int -> visit_row list
val visit : t -> int -> visit_row option
(** Lookup by the engine-assigned visit id. *)

val bookmarks : t -> (int * int * string) list
(** [(bookmark_id, place_id, title)]. *)

val downloads : t -> (int * string * string * int) list
(** [(download_id, source_url, target_path, start_time)]. *)

val input_history : t -> (int * string * float) list
(** [(place_id, typed_input, use_count)]. *)

val record_input_choice : t -> place_id:int -> input:string -> unit
(** The adaptive awesomebar feedback loop: the user typed [input] and
    chose this place, so bump (or create) the [moz_inputhistory] row —
    what Firefox does when a location-bar suggestion is accepted. *)

val recompute_frecency : t -> int -> unit
(** Recompute one place's frecency from its recent visits (simplified
    Places algorithm: type-weighted, recency-bucketed sample). *)

(** The pieces of that algorithm, exposed so incremental views
    ([Places_views]) can reproduce the stored values bit-for-bit. *)

val type_weight : Transition.t -> float

val recency_weight : now:int -> visit_date:int -> float

val firefox_keeps_referrer : Transition.t -> bool
(** Whether Firefox records [from_visit] for this transition — the
    renderer-performed ones keep the causal chain, explicit user
    navigation (typed, bookmark) drops it (§3.2). *)
