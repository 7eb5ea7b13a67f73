(** Decayed neighborhood expansion.

    This is the Shah et al. mechanism the paper adopts for contextual
    history search (§2.1): start from textually relevant seed nodes with
    their text scores, spread relevance to provenance neighbors with a
    per-hop decay, and re-rank by combined score. *)

type config = {
  decay : float;  (** per-hop multiplier, in (0, 1\]; default 0.5 *)
  max_hops : int;  (** expansion radius; default 2 *)
  direction : Traversal.direction;  (** default [Both] *)
  edge_weight : float;  (** weight applied per traversed edge; default 1.0 *)
  node_budget : int option;  (** cap on expanded nodes; None = unbounded *)
  degree_normalize : bool;
      (** flow semantics: a node splits its received mass among its
          neighbors (random-walk style), so high-degree hubs do not
          amplify relevance.  Off (default), mass depends only on hop
          distance: a node at hop h receives [seed *. decay^h] per
          seed. *)
}

val default_config : config

val expand :
  ?config:config ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  seeds:(int * float) list ->
  (int, float) Hashtbl.t * bool
(** Propagate seed mass outward: a node at hop [h] from a seed with score
    [s] receives [s *. decay^h *. edge_weight^h], summed over seeds and
    shortest hops.  Returns the score table and a truncation flag (true
    when the node budget stopped expansion).

    The walk allocates nothing per edge: it runs over this domain's
    {!Walk_scratch} (visited stamps, depths, an int-array queue and a
    dense score array), and only at the end fills the returned table,
    created with [Hashtbl.create 128], in the order nodes were first
    reached.  That table therefore iterates, and its scores sum, exactly
    as one bumped node by node along the walk.  [follow] may be called
    more than once per edge (in flow mode, once to count a node's
    fan-out and once to visit), so it should be pure. *)

val ranked : (int, float) Hashtbl.t -> (int * float) list
(** Descending scores, ties by ascending id. *)
