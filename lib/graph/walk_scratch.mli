(** Reusable working memory for the breadth-first walks in {!Traversal}
    and {!Neighborhood}.

    A walk marks what it reached by writing its generation number into
    [stamp] (per BFS) or [seen] (per call), so starting a walk clears
    nothing: it takes a fresh generation.  All arrays are indexed by node
    id and hold at least the walked graph's {!Digraph.bound} entries.
    Each domain has its own scratch, so walks on concurrent domains never
    share one; a walk started from inside another walk's callback gets a
    fresh scratch of its own. *)

type t = {
  mutable stamp : int array;  (** reached by BFS [g] iff [stamp.(id) = g] *)
  mutable depth : int array;  (** hop count from the BFS root *)
  mutable parent : int array;  (** the node a BFS reached it from; a root's is itself *)
  mutable mass : float array;  (** mass a node received on discovery *)
  mutable queue : int array;  (** the BFS queue; each node enters once *)
  mutable seen : int array;  (** scored by call [c] iff [seen.(id) = c] *)
  mutable score : float array;
  mutable order : int array;  (** nodes in the order they were first scored *)
  mutable scored : int;  (** entries of [order] in use *)
  mutable gen : int;  (** the last generation handed out *)
  mutable busy : bool;
}

val with_scratch : bound:int -> (t -> 'a) -> 'a
(** Runs [f] with this domain's scratch, grown to at least [bound]
    entries. *)

val next_gen : t -> int
(** A generation no array entry holds yet. *)
