(** The capture layer: turns the browser's event stream into provenance.

    Attach to an engine and every subsequent event becomes nodes and
    edges in a {!Prov_store} plus intervals in a {!Time_index}.  The
    configuration controls exactly which §3.2/§3.3 relationships are
    captured, which is what experiment E11 ablates: [firefox_like]
    records only what Firefox 3 Places keeps, [full] records everything
    the paper argues a provenance-aware browser should. *)

type config = {
  record_typed_edges : bool;
      (** keep the previous-page relationship for location-bar
          navigation (Firefox drops it) *)
  record_bookmark_nodes : bool;
  record_search_nodes : bool;
  record_form_nodes : bool;
  record_download_nodes : bool;
  record_close_times : bool;
  record_time_edges : bool;  (** materialize capped [Same_time] edges *)
  time_edge_fanout : int;
      (** at most this many co-open partners per opening visit *)
  record_tab_spawn : bool;
}

val full : config
val firefox_like : config
(** What FF3 actually keeps: link/redirect/embed/form-referrer chains
    and downloads; no typed edges, no search/bookmark/form nodes, no
    close times, no time or tab edges. *)

type t

val attach : ?config:config -> Browser.Engine.t -> t
(** Subscribe to the engine.  Only events emitted after attachment are
    captured. *)

val observer : ?config:config -> unit -> t * (Browser.Event.t -> unit)
(** A detached capture for replaying recorded event logs. *)

val handle_batch : t -> Browser.Event.t list -> unit
(** Ingest a whole recorded event stream in order — the batch entry
    point.  Semantically identical to feeding the events one at a time;
    pair the capture's store with a group-commit
    {!Prov_log.Segmented} WAL to amortize the fsync cost across the
    batch. *)

val config : t -> config
val store : t -> Prov_store.t
val time_index : t -> Time_index.t

val visit_node : t -> int -> int option
(** Provenance node for an engine visit id (convenience re-export). *)
