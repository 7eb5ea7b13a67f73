(** Budgeted breadth- and depth-first traversals.

    Every traversal takes an optional [budget] — a cap on the number of
    node expansions — because the paper's queries must be boundable to a
    fixed latency (§4).  Results report whether they were truncated.

    {!bfs} (and everything built on it) marks visited nodes in this
    domain's {!Walk_scratch} with a fresh generation stamp and queues
    them in its int array, so a walk allocates per visited node only
    the result list, never per edge. *)

type direction = Forward | Backward | Both

type 'a outcome = { visited : 'a; truncated : bool }

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

val reachable :
  ?direction:direction ->
  ?max_depth:int ->
  ?budget:int ->
  ?follow:(src:int -> dst:int -> 'e -> bool) ->
  ('n, 'e) Digraph.t ->
  roots:int list ->
  unit outcome * (int, int) Hashtbl.t
(** Like {!bfs} but returns the depth table directly (node -> depth). *)

val ancestors :
  ?max_depth:int -> ?budget:int -> ('n, 'e) Digraph.t -> int -> (int * int) list outcome
(** BFS over in-edges, excluding the start node: the transitive sources
    this node was derived from, with distances. *)

val descendants :
  ?max_depth:int -> ?budget:int -> ('n, 'e) Digraph.t -> int -> (int * int) list outcome
(** BFS over out-edges, excluding the start node. *)

val dfs_postorder : ('n, 'e) Digraph.t -> roots:int list -> int list
(** Iterative postorder over out-edges; each reachable node once. *)

val iter_neighbors : direction -> ('n, 'e) Digraph.t -> int -> (int -> 'e -> unit) -> unit
(** [f other label] for each edge the direction follows out of a node:
    out-edges, in-edges, or out-edges then in-edges ({!Digraph.iter_out},
    {!Digraph.iter_in}), without allocating. *)
