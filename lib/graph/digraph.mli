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
    arrays, oldest edge first: the labels, and the edges packed into
    one int each, [(other lsl 4) lor tag] (see {!packed}).  Nodes and
    edges are never removed.

    {b Order.} Every enumeration is deterministic: {!iter_nodes},
    {!fold_nodes}, {!nodes} and {!filter_nodes} walk ascending ids;
    {!iter_edges} and {!fold_edges} walk sources by ascending id and each
    source's out-edges oldest first; per-node adjacency is oldest first.

    {b Allocation.} The packed reads ({!out_adj}, {!out_degree} and the
    like) allocate nothing; the list-returning {!out_edges} and
    {!in_edges} build a fresh list per call. *)

type ('n, 'e) t

val create : ?initial_capacity:int -> ?tag:('e -> int) -> unit -> ('n, 'e) t
(** [initial_capacity] sizes the arrays on the first insert.  [tag]
    classes each edge by its label, once, as {!add_edge} stores it: a
    tag is 0 to 15, and walks filter edges by a mask of tags (default:
    every edge has tag 0). *)

val add_node : ('n, 'e) t -> int -> 'n -> unit
(** Insert or replace a node's payload.  Replacement keeps edges.
    Raises [Invalid_argument] on a negative id or one above {!max_id}. *)

val max_id : int
(** The largest node id a packed edge holds: [max_int lsr 4]. *)

val mem_node : ('n, 'e) t -> int -> bool

val node : ('n, 'e) t -> int -> 'n
(** Raises [Not_found]. *)

val node_opt : ('n, 'e) t -> int -> 'n option

val add_edge : ('n, 'e) t -> src:int -> dst:int -> 'e -> unit
(** Multi-edges are allowed (two visits across the same link are two
    edges).  Both endpoints must exist, and the label's tag must be 0
    to 15; raises [Invalid_argument] otherwise. *)

val bound : ('n, 'e) t -> int
(** One more than the largest node id added, 0 for an empty graph:
    every node id is below it. *)

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

(** {2:packed Packed adjacency}

    What the walks read: a node's edges in one direction as packed
    ints, each [(other lsl 4) lor tag], where [other] is the far
    endpoint and [tag] the edge's class.  A walk filters edges by a
    mask with bit [tag] set for each tag it follows, in a plain loop
    over the array: no closure, and no read of the label. *)

val all_tags : int
(** The mask that admits every edge. *)

val out_adj : ('n, 'e) t -> int -> int array
(** A node's out-edges, packed, oldest first: the first {!out_degree}
    entries are its edges, the rest is spare room.  Empty for unknown
    nodes.  The array is the graph's own: read it before the next
    {!add_edge}. *)

val in_adj : ('n, 'e) t -> int -> int array
(** A node's in-edges, likewise. *)

val out_degree : ('n, 'e) t -> int -> int
(** Out-edges of a node, multi-edges counted; 0 for unknown nodes. *)

val in_degree : ('n, 'e) t -> int -> int

val other : int -> int
(** A packed edge's far endpoint. *)

val admits : int -> int -> bool
(** [admits mask packed]: whether the mask holds the packed edge's tag. *)
