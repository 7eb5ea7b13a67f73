module Digraph = Provgraph.Digraph

type outcome = {
  store : Prov_store.t;
  expired_visits : int;
  summary_edges : int;
  kept_nodes : int;
}

let expired_visit ~cutoff (n : Prov_node.t) =
  Prov_node.is_visit n
  && match n.Prov_node.time with Some t -> t < cutoff | None -> false

(* Map an endpoint of an edge into the post-expiry store: kept nodes map
   to themselves, expired visits collapse onto their page object. *)
let endpoint_mapper ~cutoff store =
  fun id ->
    match Prov_store.node_opt store id with
    | None -> None
    | Some n ->
      if not (expired_visit ~cutoff n) then Some id
      else if Prov_store.page_of_visit store id >= 0 then Some (Prov_store.page_of_visit store id)
      else None

let plan ~cutoff store =
  let g = Prov_store.graph store in
  let map_endpoint = endpoint_mapper ~cutoff store in
  let kept = ref [] and expired = ref 0 in
  Digraph.iter_nodes g (fun _ n ->
      if expired_visit ~cutoff n then incr expired else kept := n :: !kept);
  (* Edges: verbatim between kept nodes; summarized when an endpoint
     expired.  Summaries are deduplicated per (src, dst, kind), keeping
     the earliest action time. *)
  let verbatim = ref [] in
  let summaries : (int * int * Prov_edge.kind, int) Hashtbl.t = Hashtbl.create 256 in
  Digraph.iter_edges g (fun src dst (e : Prov_edge.t) ->
      let src_expired =
        match Prov_store.node_opt store src with
        | Some n -> expired_visit ~cutoff n
        | None -> false
      in
      let dst_expired =
        match Prov_store.node_opt store dst with
        | Some n -> expired_visit ~cutoff n
        | None -> false
      in
      if (not src_expired) && not dst_expired then verbatim := (src, dst, e) :: !verbatim
      else if Prov_edge.is_causal e.Prov_edge.kind && e.Prov_edge.kind <> Prov_edge.Instance
      then begin
        match (map_endpoint src, map_endpoint dst) with
        | Some s, Some d when s <> d ->
          let key = (s, d, e.Prov_edge.kind) in
          let time =
            match Hashtbl.find_opt summaries key with
            | Some t -> min t e.Prov_edge.time
            | None -> e.Prov_edge.time
          in
          Hashtbl.replace summaries key time
        | _ -> ()
      end);
  (!kept, !expired, List.rev !verbatim, summaries)

let expire ~cutoff store =
  let kept, expired_visits, verbatim, summaries = plan ~cutoff store in
  let out = Prov_store.create () in
  List.iter (Prov_store.restore_node out) kept;
  List.iter (fun (src, dst, e) -> Prov_store.restore_edge out ~src ~dst e) verbatim;
  Hashtbl.iter
    (fun (src, dst, kind) time ->
      Prov_store.restore_edge out ~src ~dst { Prov_edge.kind; time })
    summaries;
  {
    store = out;
    expired_visits;
    summary_edges = Hashtbl.length summaries;
    kept_nodes = List.length kept;
  }
