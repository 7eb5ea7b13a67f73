(** Decayed neighborhood expansion.

    This is the Shah et al. mechanism the paper adopts for contextual
    history search (§2.1): start from textually relevant seed nodes with
    their text scores, spread relevance to provenance neighbors with a
    per-hop decay, and re-rank by combined score. *)

type config = {
  decay : float;  (** per-hop multiplier, in (0, 1\]; default 0.5 *)
  max_hops : int;  (** expansion radius; default 2 *)
  node_budget : int option;  (** cap on expanded nodes; None = unbounded *)
  degree_normalize : bool;
      (** flow semantics: a node splits its received mass among its
          neighbors (random-walk style), so high-degree hubs do not
          amplify relevance.  Off (default), mass depends only on hop
          distance: a node at hop h receives [seed *. decay^h] per
          seed. *)
}

val default_config : config

type expansion = {
  reached : Provkit_util.Scratch.t;
      (** its members are the reached nodes; [ids] lists them in the
          order they were first reached *)
  scores : float array;  (** [scores.(id)]: a reached node's score *)
  truncated : bool;  (** the node budget stopped expansion *)
}

val expand :
  ?config:config ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  seeds:(int * float) list ->
  (expansion -> 'a) ->
  'a
(** [expand g ~seeds k] propagates seed mass outward over edges in both
    directions: a node at hop [h] from a seed with score [s] receives
    [s *. decay^h], summed over seeds and shortest hops, in seed order and then BFS
    order.  [k] gets the reached nodes and their scores, read straight
    off this domain's scratch: they are valid only until [k] returns.

    The walk allocates nothing per node or edge: each seed's BFS runs
    over a second {!Provkit_util.Scratch} (visited stamps, depths, the
    queue), and scores sum into dense arrays.  [follow] may be called
    more than once per edge (in flow mode, once to count a node's
    fan-out and once to visit), so it should be pure.  [follow] and [k]
    may expand again: a nested expansion takes scratches of its own. *)

val score : expansion -> int -> float
(** A node's score, 0.0 for a node the expansion did not reach. *)
