(** A directed multigraph over integer node ids, with polymorphic node
    and edge payloads and O(1) access to both out- and in-adjacency.

    This is the in-memory representation every provenance query runs
    against; the relational store persists it, this module traverses
    it. *)

type ('n, 'e) t

val create : ?initial_capacity:int -> unit -> ('n, 'e) t

val add_node : ('n, 'e) t -> int -> 'n -> unit
(** Insert or replace a node's payload.  Replacement keeps edges. *)

val mem_node : ('n, 'e) t -> int -> bool

val node : ('n, 'e) t -> int -> 'n
(** Raises [Not_found]. *)

val node_opt : ('n, 'e) t -> int -> 'n option

val add_edge : ('n, 'e) t -> src:int -> dst:int -> 'e -> unit
(** Multi-edges are allowed (two visits across the same link are two
    edges).  Both endpoints must exist; raises [Invalid_argument]
    otherwise. *)

val out_edges : ('n, 'e) t -> int -> (int * 'e) list
(** [(dst, label)] pairs, most recently added last.  Empty for unknown
    nodes. *)

val in_edges : ('n, 'e) t -> int -> (int * 'e) list
(** [(src, label)] pairs. *)

val succ : ('n, 'e) t -> int -> int list
(** Distinct successors, ascending. *)

val pred : ('n, 'e) t -> int -> int list
(** Distinct predecessors, ascending. *)

val out_degree : ('n, 'e) t -> int -> int
(** Number of out-edges (multi-edges counted). *)

val in_degree : ('n, 'e) t -> int -> int

val node_count : ('n, 'e) t -> int
val edge_count : ('n, 'e) t -> int

val nodes : ('n, 'e) t -> int list
(** Ascending. *)

val iter_nodes : ('n, 'e) t -> (int -> 'n -> unit) -> unit
val fold_nodes : ('n, 'e) t -> init:'a -> f:('a -> int -> 'n -> 'a) -> 'a
val iter_edges : ('n, 'e) t -> (int -> int -> 'e -> unit) -> unit
val fold_edges : ('n, 'e) t -> init:'a -> f:('a -> int -> int -> 'e -> 'a) -> 'a

val filter_nodes : ('n, 'e) t -> (int -> 'n -> bool) -> int list
