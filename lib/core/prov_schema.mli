(** Relational image of the provenance graph (§4).

    The paper's prototype stored heterogeneous provenance objects "as
    homogeneous graph nodes" in a SQLite schema modelled on Places and
    measured 39.5 % storage overhead over Places.  This module is that
    schema over {!Relstore}: three tables — [prov_node], [prov_edge],
    [prov_attr] — plus the indexes a query engine needs.  Byte sizes
    come from {!Relstore.Database.total_size}, so the E2 overhead
    measurement compares like with like. *)

(** {2 The op fold}

    The relational image is one more fold over the store's mutation
    stream ({!Prov_log.op}).  {!apply} is the whole op → row mapping:

    - a new [Add_node] inserts a [prov_node] row whose rowid is the node
      id (plus its [prov_attr] rows for a form submission); a re-added
      node rewrites its row but keeps the [page] column;
    - an [Instance] edge fills the visit row's [page] column, so visit
      rows do not repeat their page's url/title;
    - a [Same_time] edge is dropped: it is derivable from the persisted
      open/close stamps ({!Time_edges});
    - every other edge inserts a [prov_edge] row;
    - [Close_node] sets [close_time].

    provd keeps one image live, applying each batch's ops, and publishes
    {!Relstore.Database.snapshot} of it in O(tables + indexes). *)

type image

val image : unit -> image
(** An empty image: the three tables and their indexes, no rows. *)

val apply : image -> Prov_store.mutation -> unit
(** Fold one op into the image.  Raises {!Relstore.Errors.Corrupt} when
    a new node's id is not the next free rowid (ops out of id order). *)

val database : image -> Relstore.Database.t
(** The image's live database: mutated by every later {!apply}, so
    readers on other domains must get a {!Relstore.Database.snapshot}. *)

val to_database : Prov_store.t -> Relstore.Database.t
(** The store's image in a fresh database: {!apply} over
    {!Prov_store.iter_contents}.  Stores whose id space became sparse
    (e.g. after {!Retention.expire}) are renumbered densely in id order,
    keeping rowid = node id.  Edge rowids follow adjacency order here,
    and op order in a live image, so the two agree on node and attr
    rowids and on the edge rows as a multiset. *)

val of_database : Relstore.Database.t -> Prov_store.t
(** Rebuild an in-memory store (graph + URL/query lookup tables) from a
    relational image, including re-deriving [Same_time] edges from the
    stored intervals.  Engine-id mappings are session state and are not
    round-tripped.  Raises {!Relstore.Errors.Corrupt} on malformed
    images. *)

val node_table : string
val edge_table : string
val attr_table : string
