(** Cycle breaking by versioning (§3.1) and its ablation (E9).

    Pages and links are not acyclic; provenance by definition is.  The
    store's default strategy is PASS-style *node versioning*: every page
    visit is its own instance node, so the causal graph is acyclic by
    construction — verified here.  The alternative the paper discusses —
    unversioned page nodes with *time-stamped edges* — is materialized
    by {!page_projection} so the two designs can be compared on
    acyclicity, size and query behaviour. *)

val is_acyclic : Prov_store.t -> bool
(** True iff the store's causal edges (all but [Same_time]) form a
    DAG.  The versioned store must always satisfy this; it is asserted
    by the test suite. *)

(** {2 The edge-timestamp alternative} *)

type page_graph = {
  graph : (string, Prov_edge.t) Provgraph.Digraph.t;
      (** node ids are the store's page-node ids; payload is the URL *)
  page_of_store_node : int -> int option;
      (** maps any store node (visit/page) to its page-graph node *)
}

val page_projection : Prov_store.t -> page_graph
(** Collapse visit instances onto their pages: a traversal edge between
    visits becomes a time-stamped edge between their pages.  Non-page
    endpoints (downloads, terms, bookmarks, forms) are dropped.  The
    result is typically cyclic — the §3.1 problem. *)

val projection_database : page_graph -> Relstore.Database.t
(** Relational image of the projection (pp_node/pp_edge tables) for the
    E9 size comparison. *)

type comparison = {
  versioned_nodes : int;
  versioned_edges : int;
  versioned_acyclic : bool;
  versioned_bytes : int;
  projected_nodes : int;
  projected_edges : int;
  projected_acyclic : bool;
  projected_bytes : int;
}

val compare_strategies : Prov_store.t -> comparison
