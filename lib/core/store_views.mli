(** Incremental views over the provenance op stream — the
    [Prov_log.op] instantiation of {!Relstore.Matview}.

    Feed them the mutations a store observer sees (a
    {!Prov_store.mutation} is a {!Prov_log.op}) or let
    {!Prov_log.Segmented.recover} rebuild them after a crash; their
    values match [Query_exec.group_count ~by:"kind"] over the
    relational export at every prefix. *)

val node_kind_counts : (Prov_log.op, (int, int) Hashtbl.t, (int * int) list) Relstore.Matview.spec
(** [(kind_code, nodes)], count descending, code ascending on ties.
    Re-adding a node id replaces its kind, like [Digraph.add_node]. *)

val edge_kind_counts : (Prov_log.op, (int, int) Hashtbl.t, (int * int) list) Relstore.Matview.spec
(** [(kind_code, edges)], same ordering.  [Same_time] and [Instance]
    edges are excluded — the relational export does not persist them. *)

val standard :
  unit ->
  Prov_log.op Relstore.Matview.t
  * (Prov_log.op, (int, int) Hashtbl.t, (int * int) list) Relstore.Matview.handle
  * (Prov_log.op, (int, int) Hashtbl.t, (int * int) list) Relstore.Matview.handle
(** A registry with both views registered: [(registry, nodes, edges)]. *)

(** {2 Cold baselines} *)

val cold_node_kinds : Prov_store.t -> (int * int) list
(** [group_count ~by:"kind"] over the [prov_node] table of
    {!Prov_schema.to_database}. *)

val cold_edge_kinds : Prov_store.t -> (int * int) list
