(** Budgeted breadth- and depth-first traversals.

    Every traversal takes an optional [budget] — a cap on the number of
    node expansions — because the paper's queries must be boundable to a
    fixed latency (§4).  Results report how many nodes were expanded and
    whether the walk was truncated.

    {!bfs} and {!first_match} share one breadth-first loop.  It marks
    visited nodes in a {!Provkit_util.Scratch} of this domain, queues
    them in its member list and keeps each one's depth and BFS parent in
    its int arrays, so a walk allocates per visited node only its
    result, never per edge. *)

type direction = Forward | Backward | Both

type 'a outcome = {
  visited : 'a;
  expansions : int;  (** nodes taken off the queue and expanded *)
  truncated : bool;  (** the budget or [max_depth] cut the walk short *)
}

val bfs :
  ?direction:direction ->
  ?max_depth:int ->
  ?budget:int ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  roots:int list ->
  (int * int) list outcome
(** [(node, depth)] pairs in visit order, roots at depth 0.  [follow]
    filters which edges are traversed (default all).  Unknown roots are
    ignored. *)

type hit = {
  node : int;
  depth : int;  (** hops from the root *)
  path : int list;  (** the BFS path from the root to [node], both included *)
}

val first_match :
  ?direction:direction ->
  ?budget:int ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  root:int ->
  (int -> bool) ->
  hit option outcome
(** The first node {!bfs} would reach from [root] that satisfies the
    predicate: the nearest one, and among those at one depth the first
    reached.  The predicate is asked only about newly reached non-root
    nodes, once each, as they are reached; the walk stops at the first
    it accepts, so a match leaves [truncated] unset.  [None] when the
    walk runs dry or the budget cuts it first; an unknown [root] expands
    nothing. *)

val ancestors :
  ?max_depth:int ->
  ?budget:int ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  int ->
  (int * int) list outcome
(** BFS over in-edges, excluding the start node: the transitive sources
    this node was derived from, with distances. *)

val iter_neighbors : direction -> ('n, 'e) Digraph.t -> int -> (int -> 'e -> unit) -> unit
(** [f other label] for each edge the direction follows out of a node:
    out-edges, in-edges, or out-edges then in-edges ({!Digraph.iter_out},
    {!Digraph.iter_in}), without allocating. *)
