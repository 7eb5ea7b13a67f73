(** Cycle detection and topological ordering.

    Provenance is acyclic by definition (§3.1); these checks verify that
    the versioning schemes in [Core.Versioning] actually deliver a DAG,
    and power the property tests. *)

val has_cycle : ?follow:(src:int -> dst:int -> 'e -> bool) -> ('n, 'e) Digraph.t -> bool
(** Whether the edges [follow] keeps (default all) close a cycle. *)

val find_cycle : ?follow:(src:int -> dst:int -> 'e -> bool) -> ('n, 'e) Digraph.t -> int list option
(** Some witness cycle as a node sequence [v0; ...; vk] with an edge
    vk -> v0, or [None] for a DAG.  Depth-first from each node in
    ascending id order, successors in ascending id order. *)

val topological_sort : ('n, 'e) Digraph.t -> int list option
(** Kahn's algorithm; [None] when the graph has a cycle.  Deterministic:
    ties resolved by ascending node id. *)

val strongly_connected_components : ('n, 'e) Digraph.t -> int list list
(** Tarjan's SCCs; singleton components without self-loops are the
    trivial ones.  Each component sorted ascending; components in
    reverse topological order of the condensation. *)
