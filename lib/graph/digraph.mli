(** A directed multigraph over integer node ids, with polymorphic node
    and edge payloads and O(1) access to both out- and in-adjacency.

    This is the in-memory representation every provenance query runs
    against; the relational store persists it, this module traverses
    it.

    {b Layout.} Ids are array indices: node ids must be [>= 0]
    ({!add_node} raises [Invalid_argument] otherwise), and the graph
    holds arrays as long as the largest id it has seen, so it suits
    dense ids.  Payloads sit in one array with a presence bitmap beside
    it.  Each node keeps its out-edges and its in-edges as two growable
    arrays of endpoints and labels, oldest edge first.  Nodes and edges
    are never removed.

    {b Order.} Every enumeration is deterministic: {!iter_nodes},
    {!fold_nodes}, {!nodes} and {!filter_nodes} walk ascending ids;
    {!iter_edges} and {!fold_edges} walk sources by ascending id and each
    source's out-edges oldest first; per-node adjacency is oldest first.

    {b Allocation.} {!iter_out} and {!iter_in} allocate
    nothing of their own; the list-returning {!out_edges} and
    {!in_edges} build a fresh list per call. *)

type ('n, 'e) t

val create : ?initial_capacity:int -> unit -> ('n, 'e) t
(** [initial_capacity] sizes the arrays on the first insert. *)

val add_node : ('n, 'e) t -> int -> 'n -> unit
(** Insert or replace a node's payload.  Replacement keeps edges.
    Raises [Invalid_argument] on a negative id. *)

val mem_node : ('n, 'e) t -> int -> bool

val node : ('n, 'e) t -> int -> 'n
(** Raises [Not_found]. *)

val node_opt : ('n, 'e) t -> int -> 'n option

val add_edge : ('n, 'e) t -> src:int -> dst:int -> 'e -> unit
(** Multi-edges are allowed (two visits across the same link are two
    edges).  Both endpoints must exist; raises [Invalid_argument]
    otherwise. *)

val bound : ('n, 'e) t -> int
(** One more than the largest node id added, 0 for an empty graph:
    every node id is below it. *)

val iter_out : ('n, 'e) t -> int -> (int -> 'e -> unit) -> unit
(** [f dst label] for each out-edge, oldest first.  Nothing for unknown
    nodes. *)

val iter_in : ('n, 'e) t -> int -> (int -> 'e -> unit) -> unit
(** [f src label] for each in-edge, oldest first. *)

val out_edges : ('n, 'e) t -> int -> (int * 'e) list
(** [(dst, label)] pairs, oldest first.  Empty for unknown nodes. *)

val in_edges : ('n, 'e) t -> int -> (int * 'e) list
(** [(src, label)] pairs, oldest first. *)

val node_count : ('n, 'e) t -> int
val edge_count : ('n, 'e) t -> int

val nodes : ('n, 'e) t -> int list
(** Ascending. *)

val iter_nodes : ('n, 'e) t -> (int -> 'n -> unit) -> unit
val fold_nodes : ('n, 'e) t -> init:'a -> f:('a -> int -> 'n -> 'a) -> 'a
val iter_edges : ('n, 'e) t -> (int -> int -> 'e -> unit) -> unit
val fold_edges : ('n, 'e) t -> init:'a -> f:('a -> int -> int -> 'e -> 'a) -> 'a

val filter_nodes : ('n, 'e) t -> (int -> 'n -> bool) -> int list
(** Ascending. *)
