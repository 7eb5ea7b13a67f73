(* Schema validation, row helpers, indexes and table mutation. *)

module R = Relstore

let people_schema () =
  R.Schema.make ~name:"people"
    [
      R.Column.make "name" R.Value.Ttext;
      R.Column.make "age" R.Value.Tint;
      R.Column.make ~nullable:true "email" R.Value.Ttext;
    ]

let person ?email name age =
  [
    ("name", R.Value.Text name);
    ("age", R.Value.Int age);
    ("email", match email with None -> R.Value.Null | Some e -> R.Value.Text e);
  ]

(* --- schema --- *)

let test_schema_basics () =
  let s = people_schema () in
  Alcotest.(check string) "name" "people" (R.Schema.name s);
  Alcotest.(check int) "arity" 3 (R.Schema.arity s);
  Alcotest.(check int) "column_index" 1 (R.Schema.column_index s "age")

let test_schema_duplicate_column () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Schema.make: duplicate column x")
    (fun () ->
      ignore
        (R.Schema.make ~name:"t" [ R.Column.make "x" R.Value.Tint; R.Column.make "x" R.Value.Tint ]))

let test_schema_no_such_column () =
  let s = people_schema () in
  try
    ignore (R.Schema.column_index s "ghost");
    Alcotest.fail "expected No_such_column"
  with R.Errors.No_such_column _ -> ()

let test_validate_row () =
  let s = people_schema () in
  R.Schema.validate_row s [| R.Value.Text "ann"; R.Value.Int 30; R.Value.Null |];
  (try
     R.Schema.validate_row s [| R.Value.Text "ann"; R.Value.Null; R.Value.Null |];
     Alcotest.fail "NOT NULL should be enforced"
   with R.Errors.Constraint_violation _ -> ());
  (try
     R.Schema.validate_row s [| R.Value.Int 1; R.Value.Int 2; R.Value.Null |];
     Alcotest.fail "type should be enforced"
   with R.Errors.Type_mismatch _ -> ());
  try
    R.Schema.validate_row s [| R.Value.Text "short" |];
    Alcotest.fail "arity should be enforced"
  with R.Errors.Type_mismatch _ -> ()

let test_schema_serialize_roundtrip () =
  let s = people_schema () in
  let buf = Buffer.create 64 in
  R.Schema.serialize buf s;
  let pos = ref 0 in
  let s' = R.Schema.deserialize (Buffer.contents buf) pos in
  Alcotest.(check string) "name" (R.Schema.name s) (R.Schema.name s');
  Alcotest.(check int) "arity" (R.Schema.arity s) (R.Schema.arity s');
  Array.iter2
    (fun (a : R.Column.t) (b : R.Column.t) ->
      Alcotest.(check string) "col name" a.R.Column.name b.R.Column.name;
      Alcotest.(check bool) "nullable" a.R.Column.nullable b.R.Column.nullable)
    (R.Schema.columns s) (R.Schema.columns s')

(* --- row helpers --- *)

let test_row_of_alist () =
  let s = people_schema () in
  let row = R.Row.of_alist s (person "bob" 44) in
  Alcotest.(check string) "get name" "bob" (R.Row.text s row "name");
  Alcotest.(check int) "get age" 44 (R.Row.int s row "age");
  Alcotest.(check (option string)) "null email" None (R.Row.text_opt s row "email")

let test_row_missing_defaults_null () =
  let s = people_schema () in
  let row = R.Row.of_alist s [ ("name", R.Value.Text "x"); ("age", R.Value.Int 1) ] in
  Alcotest.(check bool) "missing is null" true (R.Value.is_null (R.Row.get s row "email"))

let test_row_duplicate_field () =
  let s = people_schema () in
  Alcotest.check_raises "dup" (Invalid_argument "Row.of_alist: duplicate field age")
    (fun () ->
      ignore (R.Row.of_alist s [ ("age", R.Value.Int 1); ("age", R.Value.Int 2) ]))

let test_row_set_functional () =
  let s = people_schema () in
  let row = R.Row.of_alist s (person "carol" 22) in
  let row' = R.Row.set s row "age" (R.Value.Int 23) in
  Alcotest.(check int) "updated" 23 (R.Row.int s row' "age");
  Alcotest.(check int) "original untouched" 22 (R.Row.int s row "age")

(* --- index --- *)

let test_index_add_find_remove () =
  let s = people_schema () in
  let idx = R.Index.create ~name:"by_age" ~columns:[ "age" ] s in
  let r30 = R.Row.of_alist s (person "a" 30) in
  let r30b = R.Row.of_alist s (person "b" 30) in
  let r40 = R.Row.of_alist s (person "c" 40) in
  R.Index.add idx 1 r30;
  R.Index.add idx 2 r30b;
  R.Index.add idx 3 r40;
  Alcotest.(check (list int)) "find 30" [ 1; 2 ] (R.Index.find idx [ R.Value.Int 30 ]);
  Alcotest.(check (list int)) "find 40" [ 3 ] (R.Index.find idx [ R.Value.Int 40 ]);
  Alcotest.(check (list int)) "find none" [] (R.Index.find idx [ R.Value.Int 99 ]);
  R.Index.remove idx 1 r30;
  Alcotest.(check (list int)) "after remove" [ 2 ] (R.Index.find idx [ R.Value.Int 30 ])

let test_index_unique () =
  let s = people_schema () in
  let idx = R.Index.create ~unique:true ~name:"u" ~columns:[ "name" ] s in
  R.Index.add idx 1 (R.Row.of_alist s (person "dup" 1));
  try
    R.Index.add idx 2 (R.Row.of_alist s (person "dup" 2));
    Alcotest.fail "unique violated silently"
  with R.Errors.Constraint_violation _ -> ()

let test_index_range () =
  let s = people_schema () in
  let idx = R.Index.create ~name:"by_age" ~columns:[ "age" ] s in
  List.iteri (fun i age -> R.Index.add idx (i + 1) (R.Row.of_alist s (person "p" age)))
    [ 10; 20; 30; 40; 50 ];
  let in_range =
    R.Index.fold_range ~lo:[ R.Value.Int 20 ] ~hi:[ R.Value.Int 40 ] idx ~init:[]
      ~f:(fun acc _key rowid -> rowid :: acc)
  in
  Alcotest.(check (list int)) "range inclusive" [ 2; 3; 4 ] (List.rev in_range);
  let unbounded =
    R.Index.fold_range idx ~init:0 ~f:(fun acc _ _ -> acc + 1)
  in
  Alcotest.(check int) "full range" 5 unbounded

(* --- table --- *)

let test_table_crud () =
  let t = R.Table.create (people_schema ()) in
  let id1 = R.Table.insert_fields t (person "ann" 30) in
  let id2 = R.Table.insert_fields t (person "bob" 40 ~email:"b@x") in
  Alcotest.(check int) "ids sequential" (id1 + 1) id2;
  Alcotest.(check int) "count" 2 (R.Table.row_count t);
  Alcotest.(check string) "get" "ann" (R.Row.text (R.Table.schema t) (R.Table.get t id1) "name");
  R.Table.update_field t id1 "age" (R.Value.Int 31);
  Alcotest.(check int) "updated" 31 (R.Row.int (R.Table.schema t) (R.Table.get t id1) "age");
  Alcotest.(check bool) "unknown id" false (R.Table.mem t (id2 + 1));
  try
    ignore (R.Table.get t (id2 + 1));
    Alcotest.fail "expected No_such_row"
  with R.Errors.No_such_row _ -> ()

let test_table_indexes_maintained () =
  let t = R.Table.create (people_schema ()) in
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  let id1 = R.Table.insert_fields t (person "ann" 30) in
  let _id2 = R.Table.insert_fields t (person "bob" 30) in
  Alcotest.(check int) "two at 30" 2
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 30 ]));
  R.Table.update_field t id1 "email" (R.Value.Text "a@x");
  Alcotest.(check int) "an unindexed update keeps the entry" 2
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 30 ]));
  R.Table.update_field t id1 "age" (R.Value.Int 99);
  Alcotest.(check int) "one at 30 after update" 1
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 30 ]));
  Alcotest.(check int) "one at 99" 1
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 99 ]))

let test_table_index_built_over_existing () =
  let t = R.Table.create (people_schema ()) in
  let _ = R.Table.insert_fields t (person "x" 1) in
  let _ = R.Table.insert_fields t (person "y" 1) in
  R.Table.add_index t ~name:"late" ~columns:[ "age" ];
  Alcotest.(check int) "backfilled" 2
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 1 ]))

let test_table_unique_insert_rejected_atomically () =
  let t = R.Table.create (people_schema ()) in
  R.Table.add_index ~unique:true t ~name:"u_name" ~columns:[ "name" ];
  let _ = R.Table.insert_fields t (person "solo" 1) in
  (try
     ignore (R.Table.insert_fields t (person "solo" 2));
     Alcotest.fail "unique violated"
   with R.Errors.Constraint_violation _ -> ());
  Alcotest.(check int) "failed insert left no row" 1 (R.Table.row_count t)

(* --- snapshots --- *)

let count_matching t where =
  List.length
    (List.filter (fun (_, row) -> R.Predicate.eval where (R.Table.schema t) row) (R.Table.rows t))

(* Writes to either side of a snapshot are invisible to the other, and
   the two never share a cache entry. *)
let test_table_snapshot_immutable () =
  let t = R.Table.create (people_schema ()) in
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  (* Enough rows for a multi-level heap. *)
  let ids =
    List.init 100 (fun i -> R.Table.insert_fields t (person (Printf.sprintf "p%d" i) (i mod 7 * 10)))
  in
  let snap = R.Table.snapshot t in
  let by_age = Option.get (R.Table.find_index_on snap [ "age" ]) in
  let find () = R.Index.find by_age [ R.Value.Int 30 ] in
  let range () =
    R.Index.fold_range ~lo:[ R.Value.Int 10 ] ~hi:[ R.Value.Int 40 ] by_age ~init:[]
      ~f:(fun acc key rowid -> (key, rowid) :: acc)
  in
  let rows0 = R.Table.rows snap
  and count0 = R.Table.row_count snap
  and epoch0 = R.Table.epoch snap
  and find0 = find ()
  and range0 = range () in
  Alcotest.(check int) "snapshot keeps the epoch" (R.Table.epoch t) epoch0;
  Alcotest.(check bool) "snapshot gets a fresh uid" true (R.Table.uid snap <> R.Table.uid t);
  Alcotest.(check int) "snapshot has every row" 100 count0;
  let unchanged what =
    Alcotest.(check bool) (what ^ ": rows") true (R.Table.rows snap = rows0);
    Alcotest.(check int) (what ^ ": row_count") count0 (R.Table.row_count snap);
    Alcotest.(check (list int)) (what ^ ": Index.find") find0 (find ());
    Alcotest.(check bool) (what ^ ": Index.fold_range") true (range () = range0);
    Alcotest.(check int) (what ^ ": epoch") epoch0 (R.Table.epoch snap);
    Alcotest.(check (list string)) (what ^ ": indexes") [ "by_age" ]
      (List.map R.Index.name (R.Table.indexes snap))
  in
  R.Table.update_field t (List.nth ids 3) "age" (R.Value.Int 31);
  ignore (R.Table.insert_fields t (person "late" 30));
  R.Table.add_index t ~name:"by_name" ~columns:[ "name" ];
  unchanged "after live writes";
  Alcotest.(check int) "the live table took its writes" 101 (R.Table.row_count t);
  (* Writes to the snapshot stay out of the live table. *)
  let live_rows = R.Table.rows t in
  let live_index = Option.get (R.Table.find_index_on t [ "age" ]) in
  let live_find () = R.Index.find live_index [ R.Value.Int 30 ] in
  let live_find0 = live_find () in
  ignore (R.Table.insert_fields snap (person "snap-only" 30));
  R.Table.update_field snap (List.nth ids 0) "age" (R.Value.Int 30);
  Alcotest.(check bool) "live rows untouched by snapshot writes" true (R.Table.rows t = live_rows);
  Alcotest.(check (list int)) "live index untouched by snapshot writes" live_find0 (live_find ());
  Alcotest.(check bool) "snapshot-only name absent from the live table" true
    (R.Table.find_by t ~columns:[ "name" ] [ R.Value.Text "snap-only" ] = []);
  (* Same epoch on both sides of a fresh snapshot after one write each:
     a cache keyed by anything but the uid would serve one side's count
     for the other. *)
  let side = R.Table.snapshot t in
  let where = R.Predicate.Eq ("age", R.Value.Int 30) in
  ignore (R.Table.insert_fields side (person "side" 30));
  ignore (R.Table.insert_fields t (person "main" 70));
  Alcotest.(check int) "both sides at the same epoch" (R.Table.epoch t) (R.Table.epoch side);
  let on_side = R.Query_exec.count ~where side in
  let on_side_again = R.Query_exec.count ~where side in
  let on_live = R.Query_exec.count ~where t in
  Alcotest.(check int) "snapshot count" (count_matching side where) on_side;
  Alcotest.(check int) "cached snapshot count" on_side on_side_again;
  Alcotest.(check int) "live count is its own" (count_matching t where) on_live;
  Alcotest.(check bool) "the two counts differ" true (on_side <> on_live)

let test_database_snapshot () =
  let db = R.Database.create ~name:"d" in
  let t = R.Database.create_table db (people_schema ()) in
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  ignore (R.Table.insert_fields t (person "ann" 30));
  let snap = R.Database.snapshot db in
  let bytes0 = R.Database.to_bytes snap in
  Alcotest.(check string) "snapshot serializes like its source" (R.Database.to_bytes db) bytes0;
  ignore (R.Table.insert_fields t (person "bob" 40));
  Alcotest.(check string) "snapshot unaffected by later writes" bytes0 (R.Database.to_bytes snap);
  Alcotest.(check int) "snapshot keeps the table" 1
    (R.Table.row_count (R.Database.table snap "people"))

let test_table_find_without_index_scans () =
  let t = R.Table.create (people_schema ()) in
  let _ = R.Table.insert_fields t (person "a" 1) in
  let _ = R.Table.insert_fields t (person "b" 2) in
  Alcotest.(check int) "scan fallback" 1
    (List.length (R.Table.find_by t ~columns:[ "name" ] [ R.Value.Text "b" ]))

let test_table_serialize_roundtrip () =
  let t = R.Table.create (people_schema ()) in
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  let _ = R.Table.insert_fields t (person "ann" 30 ~email:"a@x") in
  let _ = R.Table.insert_fields t (person "bob" 40) in
  let _ = R.Table.insert_fields t (person "carol" 50) in
  let buf = Buffer.create 256 in
  R.Table.serialize buf t;
  let pos = ref 0 in
  let t' = R.Table.deserialize (Buffer.contents buf) pos in
  Alcotest.(check int) "rows preserved" (R.Table.row_count t) (R.Table.row_count t');
  Alcotest.(check int) "next id preserved"
    (R.Table.insert_fields t (person "z" 1))
    (R.Table.insert_fields t' (person "z" 1));
  Alcotest.(check int) "index rebuilt" 1
    (List.length (R.Table.find_by t' ~columns:[ "age" ] [ R.Value.Int 40 ]))

(* Regression: find_by used to answer a column/key arity mismatch with
   [] on the indexed path and a bare Invalid_argument (from List.map2
   inside the scan) on the unindexed one.  Both paths must now raise the
   typed arity error. *)
let test_find_by_arity_mismatch () =
  let t = R.Table.create (people_schema ()) in
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  let _ = R.Table.insert_fields t (person "a" 1) in
  let expect_arity path f =
    try
      ignore (f ());
      Alcotest.failf "%s path: expected Arity_mismatch" path
    with R.Errors.Arity_mismatch _ -> ()
  in
  expect_arity "indexed" (fun () ->
      R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 1; R.Value.Int 2 ]);
  expect_arity "scan" (fun () ->
      R.Table.find_by t ~columns:[ "name"; "age" ] [ R.Value.Text "a" ]);
  (* Matching arity still answers on both paths. *)
  Alcotest.(check int) "indexed path still works" 1
    (List.length (R.Table.find_by t ~columns:[ "age" ] [ R.Value.Int 1 ]));
  Alcotest.(check int) "scan path still works" 1
    (List.length (R.Table.find_by t ~columns:[ "name" ] [ R.Value.Text "a" ]))

(* Regression (found by provlint's epoch-discipline check): deserialize
   rebuilt rows and indexes without moving the modification epoch, so a
   query-cache or matview stamp taken before a snapshot load stayed
   "fresh" against the reloaded table and served the old rows.  The load
   must land on a bumped epoch. *)
let test_deserialize_bumps_epoch () =
  let t = R.Table.create (people_schema ()) in
  let _ = R.Table.insert_fields t (person "ann" 30) in
  let buf = Buffer.create 256 in
  R.Table.serialize buf t;
  let t' = R.Table.deserialize (Buffer.contents buf) (ref 0) in
  Alcotest.(check bool) "fresh load is never at the epoch a cache stamps at create" true
    (R.Table.epoch t' > 0)

(* Regression: deserialize used to trust the stored next_id verbatim, so
   a corrupt (too small) counter made later inserts collide with live
   rowids.  The counter is clamped to max rowid + 1 on load. *)
let test_deserialize_clamps_corrupt_next_id () =
  let t = R.Table.create (people_schema ()) in
  let id1 = R.Table.insert_fields t (person "ann" 30) in
  let _ = R.Table.insert_fields t (person "bob" 40) in
  let id3 = R.Table.insert_fields t (person "carol" 50) in
  let buf = Buffer.create 256 in
  R.Table.serialize buf t;
  let image = Bytes.of_string (Buffer.contents buf) in
  (* next_id is the varint immediately after the schema; with three rows
     it is a single byte, which we smash down to claim "1". *)
  let schema_len =
    let sbuf = Buffer.create 64 in
    R.Schema.serialize sbuf (R.Table.schema t);
    Buffer.length sbuf
  in
  Alcotest.(check int) "stored counter is where we think it is" (id3 + 1)
    (Char.code (Bytes.get image schema_len));
  Bytes.set image schema_len '\001';
  let pos = ref 0 in
  let t' = R.Table.deserialize (Bytes.to_string image) pos in
  Alcotest.(check int) "rows all load" 3 (R.Table.row_count t');
  let fresh = R.Table.insert_fields t' (person "dave" 60) in
  Alcotest.(check int) "clamped counter skips live rowids" (id3 + 1) fresh;
  Alcotest.(check int) "no row was overwritten" 4 (R.Table.row_count t');
  Alcotest.(check string) "first row survives the insert" "ann"
    (R.Row.text (R.Table.schema t') (R.Table.get t' id1) "name")

(* A duplicate rowid in the image is unrecoverable and must be refused,
   not silently last-writer-wins. *)
let test_deserialize_rejects_duplicate_rowid () =
  let t = R.Table.create (people_schema ()) in
  let id1 = R.Table.insert_fields t (person "ann" 30) in
  let buf = Buffer.create 256 in
  R.Schema.serialize buf (R.Table.schema t);
  Provkit_util.Varint.write_unsigned buf (id1 + 1);
  Provkit_util.Varint.write_unsigned buf 2;
  (* two rows, same rowid *)
  let row = R.Table.get t id1 in
  Provkit_util.Varint.write_unsigned buf id1;
  R.Codec.write_row buf row;
  Provkit_util.Varint.write_unsigned buf id1;
  R.Codec.write_row buf row;
  Provkit_util.Varint.write_unsigned buf 0 (* no indexes *);
  try
    ignore (R.Table.deserialize (Buffer.contents buf) (ref 0));
    Alcotest.fail "duplicate rowid must be rejected"
  with R.Errors.Corrupt _ -> ()

let test_size_accounting_consistency () =
  let t = R.Table.create (people_schema ()) in
  let empty_data = R.Table.data_size t in
  let _ = R.Table.insert_fields t (person "ann" 30) in
  Alcotest.(check bool) "data grows" true (R.Table.data_size t > empty_data);
  R.Table.add_index t ~name:"by_age" ~columns:[ "age" ];
  Alcotest.(check bool) "index accounted" true (R.Table.index_size t > 0);
  Alcotest.(check int) "total = data + index" (R.Table.total_size t)
    (R.Table.data_size t + R.Table.index_size t)

let suite =
  [
    Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema duplicate column" `Quick test_schema_duplicate_column;
    Alcotest.test_case "schema no such column" `Quick test_schema_no_such_column;
    Alcotest.test_case "validate row" `Quick test_validate_row;
    Alcotest.test_case "schema serialize roundtrip" `Quick test_schema_serialize_roundtrip;
    Alcotest.test_case "row of_alist" `Quick test_row_of_alist;
    Alcotest.test_case "row missing defaults null" `Quick test_row_missing_defaults_null;
    Alcotest.test_case "row duplicate field" `Quick test_row_duplicate_field;
    Alcotest.test_case "row set functional" `Quick test_row_set_functional;
    Alcotest.test_case "index add/find/remove" `Quick test_index_add_find_remove;
    Alcotest.test_case "index unique" `Quick test_index_unique;
    Alcotest.test_case "index range" `Quick test_index_range;
    Alcotest.test_case "table crud" `Quick test_table_crud;
    Alcotest.test_case "table indexes maintained" `Quick test_table_indexes_maintained;
    Alcotest.test_case "index backfill" `Quick test_table_index_built_over_existing;
    Alcotest.test_case "unique insert atomic" `Quick test_table_unique_insert_rejected_atomically;
    Alcotest.test_case "snapshot immutable" `Quick test_table_snapshot_immutable;
    Alcotest.test_case "database snapshot" `Quick test_database_snapshot;
    Alcotest.test_case "find without index" `Quick test_table_find_without_index_scans;
    Alcotest.test_case "table serialize roundtrip" `Quick test_table_serialize_roundtrip;
    Alcotest.test_case "find_by arity mismatch" `Quick test_find_by_arity_mismatch;
    Alcotest.test_case "deserialize bumps the epoch" `Quick test_deserialize_bumps_epoch;
    Alcotest.test_case "deserialize clamps corrupt next_id" `Quick
      test_deserialize_clamps_corrupt_next_id;
    Alcotest.test_case "deserialize rejects duplicate rowid" `Quick
      test_deserialize_rejects_duplicate_rowid;
    Alcotest.test_case "size accounting" `Quick test_size_accounting_consistency;
  ]
