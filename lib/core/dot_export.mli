(** GraphViz DOT export of provenance (sub)graphs.

    The paper points at visual interfaces over history graphs (Ayers &
    Stasko, §3.1); this is the universal interchange for them.  Node
    shapes encode the §3.3 taxonomy (pages are boxes, visits ellipses,
    search terms diamonds, downloads notes…), edge styles the §3.1–3.2
    relationship classes (dashed = redirect/embed, dotted = time). *)

val node_attributes : Prov_node.t -> (string * string) list
(** shape/label/style per node kind — exposed for testing. *)

val export_lineage : Prov_store.t -> Lineage.origin -> string
(** Just a lineage path, as a DOT chain — the "how did I get this file"
    picture. *)

val save : path:string -> string -> unit
(** Write a DOT string to a file. *)
