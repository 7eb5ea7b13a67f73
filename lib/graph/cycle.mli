(** Cycle detection.

    Provenance is acyclic by definition (§3.1); these checks verify that
    the versioning schemes in [Core.Versioning] actually deliver a DAG,
    and power the property tests. *)

val has_cycle : ?mask:int -> ('n, 'e) Digraph.t -> bool
(** Whether the edges whose tag [mask] holds (default
    {!Digraph.all_tags}) close a cycle. *)

val find_cycle : ?mask:int -> ('n, 'e) Digraph.t -> int list option
(** Some witness cycle as a node sequence [v0; ...; vk] with an edge
    vk -> v0, or [None] for a DAG.  Depth-first from each node in
    ascending id order, successors in ascending id order. *)
