(** The subgraph a member set induces in a {!Digraph}, over dense local
    ids: E12's focused subgraph (§2.1), which {!Pagerank} and {!Hits}
    rank.

    Local id [i] is the [i]th smallest member of [members]; {!local}
    maps back by binary search, so nothing a subgraph keeps is sized to
    the largest node id.  Edges are two compressed sparse rows of local ids: [i]'s
    out-edges are [out_dst] from [out_start.(i)] to [out_start.(i + 1)]
    (exclusive), its in-edges [in_src] likewise from [in_start].
    Multi-edges are kept.  Out-edges are oldest first; each member's
    in-edges are by ascending source, then each source's out-edges
    oldest first. *)

type t = private {
  members : int array;
  out_start : int array;
  out_dst : int array;
  in_start : int array;
  in_src : int array;
}

val induce : ?mask:int -> ('n, 'e) Digraph.t -> int list -> t
(** Members are the listed ids that are nodes of the graph; edges are
    its edges between members whose tag [mask] holds (default
    {!Digraph.all_tags}).  Node ids map to local ids through a
    {!Provkit_util.Scratch} of this domain, one array read per
    out-edge. *)

val size : t -> int

val local : t -> int -> int
(** A node's local id, or -1 for a non-member. *)
