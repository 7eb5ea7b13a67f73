(* EXPLAIN ANALYZE: the per-operator profile trees returned by the
   executor at level [Profile].  The contract under test is that
   the children tile the root — leaf durations share boundary
   timestamps, so their sum matches the root's latency (the acceptance
   bar is 5%; shared boundaries make it exact up to clock granularity) —
   and that rows in/out describe what each operator actually did, for
   every access path the planner can choose. *)

module Schema = Relstore.Schema
module Column = Relstore.Column
module Table = Relstore.Table
module Value = Relstore.Value
module P = Relstore.Predicate
module Q = Relstore.Query_exec
module Sql = Relstore.Sql
module Database = Relstore.Database

let visits_schema () =
  Schema.make ~name:"visits"
    [
      Column.make "url" Value.Ttext;
      Column.make "day" Value.Tint;
      Column.make "tab" Value.Tint;
    ]

let populate t =
  Table.add_index t ~name:"by_day" ~columns:[ "day" ];
  for i = 1 to 90 do
    ignore
      (Table.insert_fields t
         [
           ("url", Value.Text (Printf.sprintf "http://site%d.example/" (i mod 6)));
           ("day", Value.Int (i mod 9));
           ("tab", Value.Int (i mod 4));
         ])
  done

let fixture () =
  let t = Table.create (visits_schema ()) in
  populate t;
  t

let ops p = List.map (fun c -> c.Q.op) p.Q.children

(* The tiling invariant: every inner node's children partition its
   interval, so summed child durations match the parent within [pct]. *)
let rec check_tiling ~pct path p =
  if p.Q.children <> [] then begin
    let child_sum = List.fold_left (fun acc c -> acc + c.Q.dur_ns) 0 p.Q.children in
    let slack = max 1_000 (p.Q.dur_ns * pct / 100) in
    if abs (p.Q.dur_ns - child_sum) > slack then
      Alcotest.failf "%s: children sum %d ns vs node %d ns (> %d%% apart)" path child_sum
        p.Q.dur_ns pct;
    List.iter (fun c -> check_tiling ~pct (path ^ ";" ^ c.Q.op) c) p.Q.children
  end

let check_rows_flow path p =
  List.iter
    (fun c ->
      if c.Q.rows_in < 0 || c.Q.rows_out < 0 then
        Alcotest.failf "%s;%s: negative row count" path c.Q.op)
    p.Q.children

(* --- one plan kind per test: scan, index eq, index range ---------------- *)

(* Every select profile has the full five-operator spine; absent phases
   appear as ~zero-duration nodes (sort "rowid_order", limit "none") so
   the leaves always tile the root. *)
let select_spine = [ "probe"; "fetch"; "filter"; "sort"; "limit" ]

let profiled_select t where =
  let rows, (stats, profile) = Q.select_at Q.Profile ~where t in
  check_tiling ~pct:5 profile.Q.op profile;
  check_rows_flow profile.Q.op profile;
  (rows, stats, profile)

let test_full_scan_profile () =
  let t = fixture () in
  (* tab is unindexed, so even a range shape cannot avoid the scan. *)
  let where = P.Cmp (P.Lt, "tab", Value.Int 2) in
  Alcotest.(check bool) "precondition: planner scans" true (Q.plan_for t where = Q.Full_scan);
  let rows, stats, profile = profiled_select t where in
  Alcotest.(check (list string)) "operator spine" select_spine (ops profile);
  let probe = List.nth profile.Q.children 0 in
  let filter = List.nth profile.Q.children 2 in
  Alcotest.(check string) "probe names the scan" "heap_scan" probe.Q.detail;
  Alcotest.(check int) "probe emits every row" stats.Q.rows_scanned probe.Q.rows_out;
  Alcotest.(check int) "filter emits the result" (List.length rows) filter.Q.rows_out

let test_index_eq_profile () =
  let t = fixture () in
  let where = P.Eq ("day", Value.Int 4) in
  Alcotest.(check bool) "precondition: planner probes the index" true
    (Q.plan_for t where = Q.Index_eq "by_day");
  let rows, stats, profile = profiled_select t where in
  Alcotest.(check (list string)) "operator spine" select_spine (ops profile);
  let probe = List.nth profile.Q.children 0 in
  Alcotest.(check string) "probe names the index" "index_eq(by_day)" probe.Q.detail;
  Alcotest.(check int) "probe narrows to the matching rowids" stats.Q.rows_scanned
    probe.Q.rows_out;
  Alcotest.(check int) "10 of 90 rows match day=4" 10 (List.length rows)

let test_index_range_profile () =
  let t = fixture () in
  let where = P.Between ("day", Value.Int 2, Value.Int 5) in
  Alcotest.(check bool) "precondition: planner walks the range" true
    (Q.plan_for t where = Q.Index_range "by_day");
  let _, _, profile =
    profiled_select t where |> fun (r, s, p) ->
    Alcotest.(check string) "probe names the range" "index_range(by_day)"
      (List.hd p.Q.children).Q.detail;
    (r, s, p)
  in
  ignore profile

let test_sort_limit_profile () =
  let t = fixture () in
  let rows, (_, profile) =
    Q.select_at Q.Profile
      ~where:(P.Cmp (P.Ge, "day", Value.Int 0))
      ~order_by:[ Q.Desc "day" ]
      ~limit:7 t
  in
  check_tiling ~pct:5 profile.Q.op profile;
  Alcotest.(check (list string)) "sort and limit on the spine" select_spine (ops profile);
  let limit = List.nth profile.Q.children 4 in
  Alcotest.(check int) "limit truncates" 7 limit.Q.rows_out;
  Alcotest.(check int) "result honors the limit node" 7 (List.length rows)

let test_count_group_profiles () =
  let t = fixture () in
  let n, (_, cp) = Q.count_at Q.Profile ~where:(P.Eq ("day", Value.Int 4)) t in
  check_tiling ~pct:5 cp.Q.op cp;
  Alcotest.(check (list string)) "count spine" [ "probe"; "fetch"; "filter" ] (ops cp);
  Alcotest.(check int) "count matches" 10 n;
  let groups, (_, gp) = Q.group_count_at Q.Profile ~by:"tab" t in
  check_tiling ~pct:5 gp.Q.op gp;
  Alcotest.(check (list string)) "group spine" [ "probe"; "fetch"; "aggregate"; "sort" ]
    (ops gp);
  Alcotest.(check int) "4 tab groups" 4 (List.length groups)

(* --- the SQL surface: analyze_query on all three plan kinds ------------- *)

let db_fixture () =
  let db = Database.create ~name:"profile_fixture" in
  populate (Database.create_table db (visits_schema ()));
  db

let analyze db sql expected_plan =
  let r = Sql.analyze_query db sql in
  Alcotest.(check bool)
    (Printf.sprintf "plan for %S" sql)
    true
    (r.Sql.a_plan = expected_plan);
  check_tiling ~pct:5 r.Sql.a_profile.Q.op r.Sql.a_profile;
  let rendered = Sql.render_analyze r in
  let has needle = Provkit_util.Strutil.contains_substring ~needle rendered in
  Alcotest.(check bool) "rendering shows the operator tree" true (has "probe");
  Alcotest.(check bool) "rendering shows percentages" true (has "%");
  let json = Sql.analyze_to_json r in
  Alcotest.(check bool) "json carries the profile" true
    (Provkit_util.Strutil.contains_substring ~needle:"\"profile\"" json)

let test_analyze_all_plan_kinds () =
  let db = db_fixture () in
  analyze db "SELECT * FROM visits WHERE tab = 2" Q.Full_scan;
  analyze db "SELECT * FROM visits WHERE day = 4" (Q.Index_eq "by_day");
  analyze db "SELECT * FROM visits WHERE day BETWEEN 2 AND 5 ORDER BY day DESC LIMIT 5"
    (Q.Index_range "by_day")

let test_profile_render () =
  let t = fixture () in
  let _, (_, profile) = Q.select_at Q.Profile ~where:(P.Eq ("day", Value.Int 4)) t in
  let json = Q.profile_to_json profile in
  Alcotest.(check bool) "json nests children" true
    (Provkit_util.Strutil.contains_substring ~needle:"\"children\":[" json)

let suite =
  [
    Alcotest.test_case "full scan profile" `Quick test_full_scan_profile;
    Alcotest.test_case "index eq profile" `Quick test_index_eq_profile;
    Alcotest.test_case "index range profile" `Quick test_index_range_profile;
    Alcotest.test_case "sort + limit profile" `Quick test_sort_limit_profile;
    Alcotest.test_case "count + group profiles" `Quick test_count_group_profiles;
    Alcotest.test_case "analyze across plan kinds" `Quick test_analyze_all_plan_kinds;
    Alcotest.test_case "profile render" `Quick test_profile_render;
  ]
