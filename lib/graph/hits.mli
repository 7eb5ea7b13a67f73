(** Kleinberg's HITS over an induced subgraph — the style of algorithm
    the paper cites for contextual history search (§2.1, [Kleinberg 99]);
    the subgraph is the "focused subgraph". *)

type scores = { hub : float array; authority : float array }
(** Indexed by local id. *)

val run : Subgraph.t -> scores
(** Power iteration from all-ones scores, at most 30 rounds, until the
    L1 change of the hub scores is at most 1e-8.  Each round sums every
    authority over its in-edges and every hub over its out-edges, then
    scales each vector to unit L2 norm, its squares summed over
    ascending ids. *)
