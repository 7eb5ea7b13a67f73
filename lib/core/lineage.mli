(** Download lineage (§2.4): path queries over ancestry.

    "Find the first ancestor of this file that the user is likely to
    recognize" and "find all descendants of this page that are
    downloads."  Every query here is one {!Provgraph.Traversal} walk
    over causal edges only ([Same_time] is contextual and never part of
    lineage), bounded by the query budget's remaining nodes:
    {!first_recognizable} is {!Provgraph.Traversal.first_match} over
    in-edges, which stops at the nearest recognizable ancestor instead
    of exhausting the ancestry, and charges the nodes it expanded. *)

type recognizer = int -> bool
(** Judges whether the user would recognize a node. *)

val default_recognizer : ?min_visits:int -> Prov_store.t -> recognizer
(** Recognizable (per §2.4, "in terms of history"): a page the user has
    visited at least [min_visits] times (default 3), any bookmark, any
    search term (one's own queries are always recognizable), or a page
    the user ever navigated to by typing. *)

type ancestry = {
  ancestors : (int * int) list;  (** (node, distance), nearest first *)
  truncated : bool;
  elapsed_ms : float;
}

val ancestors : ?budget:Query_budget.t -> ?max_depth:int -> Prov_store.t -> int -> ancestry
(** Breadth-first over causal in-edges — the paper's implementation of
    download lineage. *)

type origin = {
  node : int;  (** the recognizable ancestor *)
  distance : int;
  path : int list;  (** from the queried node back to [node] *)
  truncated : bool;
  elapsed_ms : float;
}

val first_recognizable :
  ?budget:Query_budget.t ->
  ?recognizer:recognizer ->
  Prov_store.t ->
  int ->
  origin option
(** The nearest recognizable ancestor with the action path leading to
    it.  [None] when lineage is exhausted (or truncated) without a
    match. *)

type descendants = {
  downloads : int list;  (** download nodes, ascending *)
  visited : int;  (** nodes expanded *)
  truncated : bool;
  elapsed_ms : float;
}

val downloads_descending :
  ?budget:Query_budget.t -> Prov_store.t -> int -> descendants
(** All download nodes reachable forward from a node — "if the user
    decides a page is untrusted, find all downloads descending from that
    page and check them" (§2.4). *)

val describe_path : Prov_store.t -> int list -> string list
(** Human-readable rendering of a lineage path, one line per node. *)
