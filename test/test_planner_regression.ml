(* Regression suite for the two conjunctive_range planner bugs:

   1. strict comparisons (Lt/Gt) used to fall off the range-index path
      entirely — conjunctive_range returned None and plan_for scanned
      the heap even when an ordered index covered the column;
   2. multiple bounds on one column did not merge — "first range found
      wins" kept only the lower bound of [ts >= a AND ts <= b] and
      over-scanned the index tail.

   Each test pins the exact scanned-row count on the 60-row fixture
   (day = i mod 10, six rows per day value), so a regression to the old
   behavior fails on the plan *and* on rows_scanned. *)

module Schema = Relstore.Schema
module Column = Relstore.Column
module Table = Relstore.Table
module Value = Relstore.Value
module P = Relstore.Predicate
module Q = Relstore.Query_exec

let fixture () =
  let t =
    Table.create
      (Schema.make ~name:"visits"
         [
           Column.make "url" Value.Ttext;
           Column.make "day" Value.Tint;
           Column.make "tab" Value.Tint;
         ])
  in
  Table.add_index t ~name:"by_day" ~columns:[ "day" ];
  for i = 1 to 60 do
    ignore
      (Table.insert_fields t
         [
           ("url", Value.Text (Printf.sprintf "http://site%d.example/" (i mod 5)));
           ("day", Value.Int (i mod 10));
           ("tab", Value.Int (i mod 3));
         ])
  done;
  t

let plan_t =
  Alcotest.testable
    (fun fmt -> function
      | Q.Full_scan -> Format.fprintf fmt "Full_scan"
      | Q.Index_eq n -> Format.fprintf fmt "Index_eq %s" n
      | Q.Index_range n -> Format.fprintf fmt "Index_range %s" n)
    ( = )

(* Assert plan, exact candidate count, and row parity with a naive
   filter in one go. *)
let check t msg ~plan ~scanned where =
  let rows, stats = Q.select_at Q.Stats ~where t in
  Alcotest.check plan_t (msg ^ ": plan") plan stats.Q.plan;
  Alcotest.(check int) (msg ^ ": rows_scanned") scanned stats.Q.rows_scanned;
  let naive =
    List.filter (fun (_, row) -> P.eval where (Table.schema t) row) (Table.rows t)
  in
  Alcotest.(check int) (msg ^ ": row parity") (List.length naive) (List.length rows)

let test_strict_upper_bound () =
  let t = fixture () in
  (* Bug 1 (failing before): Cmp (Lt, ...) planned as Full_scan with all
     60 rows scanned.  Now: index range over days 0..5 = 36 candidates. *)
  check t "day < 6" ~plan:(Q.Index_range "by_day") ~scanned:36
    (P.Cmp (P.Lt, "day", Value.Int 6));
  Alcotest.(check bool) "rows_scanned dropped below the table size" true (36 < Table.row_count t)

let test_strict_lower_bound () =
  let t = fixture () in
  (* Days 7..9 = 18 candidates; the boundary day 6 is skipped inside the
     fold, not post-filtered, so it never counts as scanned. *)
  check t "day > 6" ~plan:(Q.Index_range "by_day") ~scanned:18
    (P.Cmp (P.Gt, "day", Value.Int 6))

let test_merged_closed_window () =
  let t = fixture () in
  (* Bug 2 (failing before): only Ge survived, scanning days 3..9 = 42
     candidates.  Merged: days 3..5 = 18. *)
  check t "day >= 3 AND day <= 5" ~plan:(Q.Index_range "by_day") ~scanned:18
    (P.And [ P.Cmp (P.Ge, "day", Value.Int 3); P.Cmp (P.Le, "day", Value.Int 5) ])

let test_merged_strict_window () =
  let t = fixture () in
  (* Both bounds strict: days 4..5 = 12 candidates. *)
  check t "day > 3 AND day < 6" ~plan:(Q.Index_range "by_day") ~scanned:12
    (P.And [ P.Cmp (P.Gt, "day", Value.Int 3); P.Cmp (P.Lt, "day", Value.Int 6) ])

let test_between_tightened_by_cmp () =
  let t = fixture () in
  (* A Between and a stray upper bound on the same column intersect:
     [2,8] ∩ (-inf,4] = days 2..4 = 18 candidates. *)
  check t "day BETWEEN 2 AND 8 AND day <= 4" ~plan:(Q.Index_range "by_day") ~scanned:18
    (P.And [ P.Between ("day", Value.Int 2, Value.Int 8); P.Cmp (P.Le, "day", Value.Int 4) ]);
  (* Exclusive beats inclusive on a boundary tie: days 2..3 = 12. *)
  check t "day BETWEEN 2 AND 4 AND day < 4" ~plan:(Q.Index_range "by_day") ~scanned:12
    (P.And [ P.Between ("day", Value.Int 2, Value.Int 4); P.Cmp (P.Lt, "day", Value.Int 4) ])

let test_contradictory_bounds_scan_nothing () =
  let t = fixture () in
  (* An empty interval is still a valid index range: zero candidates,
     zero results, no fallback to a scan. *)
  check t "day > 5 AND day < 5" ~plan:(Q.Index_range "by_day") ~scanned:0
    (P.And [ P.Cmp (P.Gt, "day", Value.Int 5); P.Cmp (P.Lt, "day", Value.Int 5) ])

let test_plan_detail_counts_strict_range () =
  let t = fixture () in
  (* The pre-catalog heuristic probes the index with the same exclusive
     semantics the executor uses. *)
  let d = Q.plan_detail_heuristic t (P.Cmp (P.Lt, "day", Value.Int 6)) in
  Alcotest.check plan_t "heuristic plan" (Q.Index_range "by_day") d.Q.chosen;
  Alcotest.(check int) "heuristic estimate" 36 d.Q.estimated_rows

let suite =
  [
    Alcotest.test_case "strict upper bound" `Quick test_strict_upper_bound;
    Alcotest.test_case "strict lower bound" `Quick test_strict_lower_bound;
    Alcotest.test_case "merged closed window" `Quick test_merged_closed_window;
    Alcotest.test_case "merged strict window" `Quick test_merged_strict_window;
    Alcotest.test_case "between tightened by cmp" `Quick test_between_tightened_by_cmp;
    Alcotest.test_case "contradictory bounds" `Quick test_contradictory_bounds_scan_nothing;
    Alcotest.test_case "plan detail heuristic" `Quick test_plan_detail_counts_strict_range;
  ]
