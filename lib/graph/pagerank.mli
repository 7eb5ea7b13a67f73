(** PageRank with optional personalization — the "interesting graph
    algorithms browsers do not apply" family (§3); personalized restart
    vectors model a user's own attention rather than global popularity. *)

val run : ?personalization:(int * float) list -> Subgraph.t -> float array
(** Each member's rank, indexed by local id.  Damping is 0.85; power
    iteration runs at most 50 rounds and stops once the L1 change is at
    most 1e-10.  [personalization] is a restart distribution over node
    ids: non-members and weights that are not positive are dropped, the
    rest are normalized, and when none remain (or without it) restart is
    uniform.  Dangling mass is redistributed through the restart vector.
    The result sums to 1.  Sums run in the subgraph's orders: each
    node's in-flow over its in-edges, the dangling mass and the L1
    change over ascending ids. *)
