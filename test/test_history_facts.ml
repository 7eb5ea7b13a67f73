(* The facts the §2 history queries read without rescanning the graph.

   Page facts: after every op prefix of a quick capture, the store's
   page_of_visit / page_hidden / visit counts / default recognizer must
   equal a cold reference computed here by full scans of the graph, on
   the live store, its Prov_log replay, its Prov_schema restore and a
   Retention output.

   Time windows: Time_index.in_window against a linear scan over random
   windows, interleaved with the adds and closes that invalidate its
   sorted view. *)

module PN = Core.Prov_node
module PE = Core.Prov_edge
module Store = Core.Prov_store
module TI = Core.Time_index
module Transition = Browser.Transition
module Digraph = Provgraph.Digraph

(* --- cold reference: full scans, the classification spelled out --- *)

let ref_page_of_visit store visit =
  List.find_map
    (fun (src, (e : PE.t)) -> if e.PE.kind = PE.Instance then Some src else None)
    (Digraph.in_edges (Store.graph store) visit)

let ref_instances store page =
  List.filter_map
    (fun (dst, (e : PE.t)) -> if e.PE.kind = PE.Instance then Some dst else None)
    (Digraph.out_edges (Store.graph store) page)

let transition_of store id =
  match (Store.node store id).PN.kind with
  | PN.Visit { transition; _ } -> Some transition
  | PN.Page _ | PN.Bookmark _ | PN.Download _ | PN.Search_term _ | PN.Form_submission _ -> None

let ref_hop_only store visit =
  match transition_of store visit with
  | Some
      ( Transition.Embed | Transition.Redirect_permanent | Transition.Redirect_temporary ) ->
    true
  | Some
      ( Transition.Link | Transition.Typed | Transition.Bookmark | Transition.Download
      | Transition.Framed_link | Transition.Form_submit | Transition.Reload )
  | None ->
    false

let ref_displayed store visit =
  match transition_of store visit with
  | Some (Transition.Embed | Transition.Download) | None -> false
  | Some
      ( Transition.Link | Transition.Typed | Transition.Bookmark
      | Transition.Redirect_permanent | Transition.Redirect_temporary
      | Transition.Framed_link | Transition.Form_submit | Transition.Reload ) ->
    true

let ref_page_hidden store page =
  match Store.node_opt store page with
  | Some n when PN.is_page n ->
    let visits = ref_instances store page in
    visits <> [] && List.for_all (ref_hop_only store) visits
  | _ -> false

let ref_displayed_count store page =
  List.length (List.filter (ref_displayed store) (ref_instances store page))

let ref_typed_pages store =
  let typed = Hashtbl.create 16 in
  Digraph.iter_nodes (Store.graph store) (fun id n ->
      match n.PN.kind with
      | PN.Visit { transition = Transition.Typed; _ } ->
        Option.iter (fun p -> Hashtbl.replace typed p ()) (ref_page_of_visit store id)
      | _ -> ());
  typed

let ref_recognizer ~typed store id =
  match Store.node_opt store id with
  | None -> false
  | Some n -> begin
    match n.PN.kind with
    | PN.Page _ -> ref_displayed_count store id >= 3 || Hashtbl.mem typed id
    | PN.Bookmark _ | PN.Search_term _ -> true
    | PN.Visit _ | PN.Download _ | PN.Form_submission _ -> false
  end

(* Every node, plus an id the store has never seen. *)
let check_facts ~where store =
  let typed = ref_typed_pages store in
  let recognize = Core.Lineage.default_recognizer store in
  let fail id what =
    Alcotest.failf "%s: node %d: %s differs from the cold reference" where id what
  in
  let absent = 1 + List.fold_left max 0 (Digraph.nodes (Store.graph store)) in
  List.iter
    (fun id ->
      if Store.page_of_visit store id <> Option.value ~default:(-1) (ref_page_of_visit store id)
      then fail id "page_of_visit";
      if Store.page_hidden store id <> ref_page_hidden store id then fail id "page_hidden";
      if Store.page_visit_count store id <> List.length (ref_instances store id) then
        fail id "page_visit_count";
      if Store.page_displayed_visit_count store id <> ref_displayed_count store id then
        fail id "page_displayed_visit_count";
      if Store.page_typed store id <> Hashtbl.mem typed id then fail id "page_typed";
      if recognize id <> ref_recognizer ~typed store id then fail id "default_recognizer")
    (absent :: Digraph.nodes (Store.graph store))

(* --- the op stream: a quick capture plus hand-made corner cases --- *)

(* A page reached only by a redirect hop (hidden), a typed visit that
   also gets a second [Instance] page, and a page with a duplicated
   [Instance] edge. *)
let corner_cases store =
  let time = 10_000_000 in
  let hop =
    Store.add_visit store ~engine_visit:(-1) ~url:"http://hop.example/r" ~title:""
      ~transition:Transition.Redirect_temporary ~tab:1 ~time
  in
  let typed =
    Store.add_visit store ~engine_visit:(-2) ~url:"http://typed.example/" ~title:"typed"
      ~transition:Transition.Typed ~tab:1 ~time:(time + 1)
  in
  let other = Store.add_page store ~url:"http://other.example/" ~title:"" ~time:(time + 2) in
  Store.add_edge store ~src:other ~dst:typed PE.Instance ~time:(time + 2);
  let shown =
    Store.add_visit store ~engine_visit:(-3) ~url:"http://dup.example/" ~title:"dup"
      ~transition:Transition.Link ~tab:1 ~time:(time + 3)
  in
  let dup = Store.page_of_visit store shown in
  Store.add_edge store ~src:dup ~dst:shown PE.Instance ~time:(time + 3);
  Store.add_edge store ~src:dup ~dst:hop PE.Instance ~time:(time + 4)

let events =
  lazy
    (let _, engine, _, _ = Core_fixtures.simulated ~seed:5 ~days:2 () in
     Browser.Engine.event_log engine)

(* Captures the quick browsing run's events into a fresh store and
   returns the op stream it recorded, calling [after_op] on the live
   store after every op. *)
let capture_ops ~after_op =
  let capture, feed = Core.Capture.observer () in
  let store = Core.Capture.store capture in
  let ops = ref [] in
  Store.set_observer store (fun m ->
      ops := m :: !ops;
      after_op (List.length !ops) store);
  List.iter feed (Lazy.force events);
  corner_cases store;
  Store.set_observer store (fun _ -> ());
  List.rev !ops

let ops = lazy (capture_ops ~after_op:(fun _ _ -> ()))

let test_live () =
  let ops =
    capture_ops ~after_op:(fun i store ->
        check_facts ~where:(Printf.sprintf "live store, op %d" i) store)
  in
  Alcotest.(check bool) "a capture's worth of ops" true (List.length ops > 200)

let test_replay () =
  let store = Store.create () in
  List.iteri
    (fun i op ->
      Core.Prov_log.apply_op store op;
      check_facts ~where:(Printf.sprintf "Prov_log replay, op %d" (i + 1)) store)
    (Lazy.force ops)

let test_schema_restore () =
  let image = Core.Prov_schema.image () in
  List.iteri
    (fun i op ->
      Core.Prov_schema.apply image op;
      check_facts
        ~where:(Printf.sprintf "Prov_schema restore, op %d" (i + 1))
        (Core.Prov_schema.of_database (Core.Prov_schema.database image)))
    (Lazy.force ops)

let test_retention () =
  let ops = Lazy.force ops in
  let times = List.filter_map (function Store.Add_node n -> n.PN.time | _ -> None) ops in
  let lo = List.fold_left min max_int times and hi = List.fold_left max min_int times in
  let store = Store.create () in
  List.iteri
    (fun i op ->
      Core.Prov_log.apply_op store op;
      List.iter
        (fun cutoff ->
          check_facts
            ~where:(Printf.sprintf "Retention at %d, op %d" cutoff (i + 1))
            (Core.Retention.expire ~cutoff store).Core.Retention.store)
        [ lo + ((hi - lo) / 3); lo + (2 * (hi - lo) / 3) ])
    ops

(* The corner cases are really there: without them the mutations this
   suite guards against could slip through. *)
let test_corner_cases_present () =
  let store = Store.create () in
  List.iter (Core.Prov_log.apply_op store) (Lazy.force ops);
  let page url = Option.get (Store.page_of_url store url) in
  Alcotest.(check bool) "redirect-only page hidden" true
    (Store.page_hidden store (page "http://hop.example/r"));
  Alcotest.(check bool) "typed page recognized" true
    (Core.Lineage.default_recognizer store (page "http://typed.example/"));
  Alcotest.(check bool) "second page of a typed visit is not typed" false
    (Store.page_typed store (page "http://other.example/"));
  Alcotest.(check int) "duplicate instance counted" 3
    (Store.page_visit_count store (page "http://dup.example/"))

(* --- Time_index.in_window against a linear scan --- *)

type ti_op = Add of int * int | Close of int * int | Query of int * int

let ref_in_window model ~start ~stop =
  List.sort Int.compare
    (Hashtbl.fold
       (fun node (o, c) acc ->
         if o <= stop && match c with None -> true | Some c -> c >= start then node :: acc
         else acc)
       model [])

(* Applies ops to an index and a model; every query is checked. *)
let run_ti_ops ops =
  let ti = TI.create () and model = Hashtbl.create 16 in
  List.iter
    (function
      | Add (node, opened) ->
        TI.add ti ~node ~opened;
        Hashtbl.replace model node (opened, None)
      | Close (node, closed) -> begin
        TI.close ti ~node ~closed;
        match Hashtbl.find_opt model node with
        | Some (o, _) -> Hashtbl.replace model node (o, Some (max o closed))
        | None -> ()
      end
      | Query (start, stop) ->
        Alcotest.(check (list int))
          (Printf.sprintf "in_window [%d, %d]" start stop)
          (ref_in_window model ~start ~stop) (TI.in_window ti ~start ~stop))
    ops

let test_window_edges () =
  run_ti_ops
    [
      Add (1, 100); Close (1, 200); Add (2, 150); Close (2, 160); Add (3, 400);
      (* before the first interval, after the last closed one *)
      Query (0, 99); Query (min_int, 50); Query (201, 399); Query (10_000, max_int);
      (* zero-width windows, on and between endpoints *)
      Query (100, 100); Query (155, 155); Query (200, 200); Query (201, 201); Query (400, 400);
      (* only the open interval reaches these *)
      Query (5_000, 5_000); Query (401, 9_999);
      (* an inverted window *)
      Query (300, 100);
    ]

let test_window_after_close_lengthens () =
  run_ti_ops
    [
      Add (1, 0); Close (1, 10); Add (2, 100); Close (2, 105); Add (3, 1_000);
      Query (500, 600);
      (* node 1 becomes by far the longest interval *)
      Close (1, 700);
      Query (500, 600); Query (650, 650); Query (701, 800);
      (* closing the open node: it stops reaching later windows *)
      Close (3, 1_100);
      Query (1_050, 1_050); Query (1_200, 2_000);
    ]

let test_window_after_reopen () =
  run_ti_ops
    [
      Add (1, 0); Close (1, 5_000); Add (2, 10); Close (2, 20);
      Query (3_000, 3_000);
      (* re-adding replaces the interval: node 1 is open again *)
      Add (1, 4_000);
      Query (3_000, 3_000); Query (4_500, 4_500); Query (100_000, 100_000);
      Add (2, 50_000);
      Query (15, 15); Query (60_000, 60_000);
    ]

let gen_ti_ops =
  QCheck.Gen.(
    let time = int_range (-50) 1_050 in
    list_size (int_range 1 80)
      (frequency
         [
           (3, map2 (fun n o -> Add (n, o)) (int_bound 20) time);
           (3, map2 (fun n c -> Close (n, c)) (int_bound 20) time);
           ( 4,
             map2
               (fun s w -> Query (s, s + w))
               (int_range (-200) 1_200)
               (frequency [ (1, return 0); (3, int_bound 300) ]) );
         ]))

let print_ti_op = function
  | Add (n, o) -> Printf.sprintf "add %d@%d" n o
  | Close (n, c) -> Printf.sprintf "close %d@%d" n c
  | Query (s, e) -> Printf.sprintf "query [%d,%d]" s e

let prop_window_matches_linear_scan =
  QCheck.Test.make ~name:"in_window = linear scan, under adds and closes" ~count:300
    (QCheck.make ~print:(QCheck.Print.list print_ti_op) gen_ti_ops)
    (fun ops ->
      run_ti_ops ops;
      true)

let suite =
  [
    Alcotest.test_case "page facts: live store, every op" `Quick test_live;
    Alcotest.test_case "page facts: Prov_log replay, every op" `Quick test_replay;
    Alcotest.test_case "page facts: Prov_schema restore, every op" `Quick test_schema_restore;
    Alcotest.test_case "page facts: Retention output" `Quick test_retention;
    Alcotest.test_case "page facts: corner cases present" `Quick test_corner_cases_present;
    Alcotest.test_case "in_window: edges and zero-width" `Quick test_window_edges;
    Alcotest.test_case "in_window: close lengthens the longest" `Quick
      test_window_after_close_lengthens;
    Alcotest.test_case "in_window: add reopens" `Quick test_window_after_reopen;
    QCheck_alcotest.to_alcotest prop_window_matches_linear_scan;
  ]
