(* Predicates, query execution, planning and the database container. *)

module R = Relstore

let schema () =
  R.Schema.make ~name:"items"
    [
      R.Column.make "name" R.Value.Ttext;
      R.Column.make "qty" R.Value.Tint;
      R.Column.make ~nullable:true "note" R.Value.Ttext;
    ]

let item ?note name qty =
  [
    ("name", R.Value.Text name);
    ("qty", R.Value.Int qty);
    ("note", match note with None -> R.Value.Null | Some s -> R.Value.Text s);
  ]

let sample_table ?(indexed = true) () =
  let t = R.Table.create (schema ()) in
  if indexed then begin
    R.Table.add_index t ~name:"by_qty" ~columns:[ "qty" ];
    R.Table.add_index t ~name:"by_name" ~columns:[ "name" ]
  end;
  List.iter
    (fun (n, q, note) -> ignore (R.Table.insert_fields t (item ?note n q)))
    [
      ("apple", 5, Some "fresh Fruit");
      ("banana", 3, None);
      ("cherry", 9, Some "tart fruit");
      ("date", 5, None);
      ("elderberry", 1, Some "rare");
    ];
  t

(* --- predicate evaluation --- *)

let eval t p rowid = R.Predicate.eval p (R.Table.schema t) (R.Table.get t rowid)

let test_predicates () =
  let t = sample_table () in
  let b = Alcotest.(check bool) in
  b "true" true (eval t R.Predicate.True 1);
  b "eq yes" true (eval t (R.Predicate.Eq ("name", R.Value.Text "apple")) 1);
  b "eq no" false (eval t (R.Predicate.Eq ("name", R.Value.Text "apple")) 2);
  b "lt" true (eval t (R.Predicate.Cmp (R.Predicate.Lt, "qty", R.Value.Int 4)) 2);
  b "ge" true (eval t (R.Predicate.Cmp (R.Predicate.Ge, "qty", R.Value.Int 9)) 3);
  b "ne" true (eval t (R.Predicate.Cmp (R.Predicate.Ne, "qty", R.Value.Int 4)) 1);
  b "between" true (eval t (R.Predicate.Between ("qty", R.Value.Int 3, R.Value.Int 5)) 2);
  b "between excl" false (eval t (R.Predicate.Between ("qty", R.Value.Int 6, R.Value.Int 8)) 3);
  b "is_null" true (eval t (R.Predicate.Is_null "note") 2);
  b "not_null" true (eval t (R.Predicate.Not_null "note") 1);
  b "like case-insensitive" true (eval t (R.Predicate.Like ("note", "fruit")) 1);
  b "like no match" false (eval t (R.Predicate.Like ("note", "vegetable")) 1);
  b "like on null" false (eval t (R.Predicate.Like ("note", "fruit")) 2);
  b "and" true
    (eval t
       (R.Predicate.And
          [ R.Predicate.Eq ("qty", R.Value.Int 5); R.Predicate.Not_null "note" ])
       1);
  b "or" true
    (eval t
       (R.Predicate.Or
          [ R.Predicate.Eq ("qty", R.Value.Int 99); R.Predicate.Eq ("name", R.Value.Text "date") ])
       4);
  b "not" true (eval t (R.Predicate.Not (R.Predicate.Is_null "note")) 1);
  b "custom" true
    (eval t
       (R.Predicate.Custom ("qty even?", fun s row -> R.Row.int s row "qty" mod 2 = 1))
       1)

let test_null_comparisons_never_match () =
  let t = sample_table () in
  Alcotest.(check bool) "cmp on null is false" false
    (eval t (R.Predicate.Cmp (R.Predicate.Lt, "note", R.Value.Text "z")) 2);
  Alcotest.(check bool) "between on null is false" false
    (eval t (R.Predicate.Between ("note", R.Value.Text "a", R.Value.Text "z")) 2)

(* --- planning --- *)

let test_plans () =
  let t = sample_table () in
  let plan p = R.Query_exec.plan_for t p in
  Alcotest.(check bool) "eq uses index" true
    (plan (R.Predicate.Eq ("qty", R.Value.Int 5)) = R.Query_exec.Index_eq "by_qty");
  Alcotest.(check bool) "between uses range index" true
    (plan (R.Predicate.Between ("qty", R.Value.Int 1, R.Value.Int 3))
    = R.Query_exec.Index_range "by_qty");
  Alcotest.(check bool) "unindexable scans" true
    (plan (R.Predicate.Like ("note", "x")) = R.Query_exec.Full_scan);
  let bare = sample_table ~indexed:false () in
  Alcotest.(check bool) "no index -> scan" true
    (R.Query_exec.plan_for bare (R.Predicate.Eq ("qty", R.Value.Int 5)) = R.Query_exec.Full_scan)

let names rows =
  List.map (fun (_, row) -> R.Value.to_text row.(0)) rows

(* --- select: indexed and scan paths agree --- *)

let test_select_index_vs_scan_agree () =
  let indexed = sample_table () in
  let bare = sample_table ~indexed:false () in
  let predicates =
    [
      R.Predicate.Eq ("qty", R.Value.Int 5);
      R.Predicate.Between ("qty", R.Value.Int 2, R.Value.Int 6);
      R.Predicate.And
        [ R.Predicate.Eq ("qty", R.Value.Int 5); R.Predicate.Not_null "note" ];
      R.Predicate.True;
    ]
  in
  List.iter
    (fun p ->
      Alcotest.(check (list string))
        (Format.asprintf "agree on %a" R.Predicate.pp p)
        (names (R.Query_exec.select ~where:p bare))
        (names (R.Query_exec.select ~where:p indexed)))
    predicates

let test_select_order_limit () =
  let t = sample_table () in
  let by_qty_desc =
    R.Query_exec.select ~order_by:[ R.Query_exec.Desc "qty" ] ~limit:2 t
  in
  Alcotest.(check (list string)) "top 2 by qty" [ "cherry"; "apple" ] (names by_qty_desc);
  let by_qty_then_name =
    R.Query_exec.select ~order_by:[ R.Query_exec.Asc "qty"; R.Query_exec.Asc "name" ] t
  in
  Alcotest.(check (list string)) "tie broken by name"
    [ "elderberry"; "banana"; "apple"; "date"; "cherry" ]
    (names by_qty_then_name)

let test_count () =
  let t = sample_table () in
  Alcotest.(check int) "count all" 5 (R.Query_exec.count t);
  Alcotest.(check int) "count filtered" 2
    (R.Query_exec.count ~where:(R.Predicate.Eq ("qty", R.Value.Int 5)) t)

let test_group_count () =
  let t = sample_table () in
  match R.Query_exec.group_count ~by:"qty" t with
  | (R.Value.Int 5, 2) :: rest ->
    Alcotest.(check int) "remaining groups" 3 (List.length rest)
  | _ -> Alcotest.fail "expected qty=5 group first with count 2"

(* --- database --- *)

let test_database_roundtrip () =
  let db = R.Database.create ~name:"testdb" in
  let t = R.Database.create_table db (schema ()) in
  R.Table.add_index t ~name:"by_qty" ~columns:[ "qty" ];
  let _ = R.Table.insert_fields t (item "apple" 5 ~note:"n") in
  let _ = R.Table.insert_fields t (item "pear" 2) in
  let bytes = R.Database.to_bytes db in
  let db' = R.Database.of_bytes bytes in
  Alcotest.(check string) "name" "testdb" (R.Database.name db');
  let t' = R.Database.table db' "items" in
  Alcotest.(check int) "rows" 2 (R.Table.row_count t');
  Alcotest.(check int) "sizes equal" (R.Database.total_size db) (R.Database.total_size db')

let test_database_save_load_file () =
  let db = R.Database.create ~name:"ondisk" in
  let t = R.Database.create_table db (schema ()) in
  let _ = R.Table.insert_fields t (item "x" 1) in
  let path = Filename.temp_file "relstore_test" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      R.Database.save db ~path;
      let db' = R.Database.load ~path in
      Alcotest.(check int) "rows survive disk" 1
        (R.Table.row_count (R.Database.table db' "items")))

let test_database_errors () =
  let db = R.Database.create ~name:"d" in
  let _ = R.Database.create_table db (schema ()) in
  (try
     ignore (R.Database.table db "missing");
     Alcotest.fail "expected No_such_table"
   with R.Errors.No_such_table _ -> ());
  Alcotest.check_raises "duplicate table"
    (Invalid_argument "Database.create_table: duplicate table items") (fun () ->
      ignore (R.Database.create_table db (schema ())));
  (try
     ignore (R.Database.of_bytes "not a database");
     Alcotest.fail "expected Corrupt"
   with R.Errors.Corrupt _ -> ())

let suite =
  [
    Alcotest.test_case "predicate evaluation" `Quick test_predicates;
    Alcotest.test_case "null comparisons" `Quick test_null_comparisons_never_match;
    Alcotest.test_case "plans" `Quick test_plans;
    Alcotest.test_case "index vs scan agree" `Quick test_select_index_vs_scan_agree;
    Alcotest.test_case "order/limit" `Quick test_select_order_limit;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "group_count" `Quick test_group_count;
    Alcotest.test_case "database roundtrip" `Quick test_database_roundtrip;
    Alcotest.test_case "database file save/load" `Quick test_database_save_load_file;
    Alcotest.test_case "database errors" `Quick test_database_errors;
  ]
