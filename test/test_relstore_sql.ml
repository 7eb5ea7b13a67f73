(* The SQL-ish query language: lexing/parsing, execution through the
   planner, errors, and agreement with programmatic queries. *)

module R = Relstore

let db_fixture () =
  let db = R.Database.create ~name:"sqltest" in
  let schema =
    R.Schema.make ~name:"wines"
      [
        R.Column.make "name" R.Value.Ttext;
        R.Column.make "year" R.Value.Tint;
        R.Column.make "rating" R.Value.Treal;
        R.Column.make ~nullable:true "note" R.Value.Ttext;
        R.Column.make "sparkling" R.Value.Tbool;
      ]
  in
  let t = R.Database.create_table db schema in
  R.Table.add_index t ~name:"wines_year" ~columns:[ "year" ];
  List.iter
    (fun (name, year, rating, note, sparkling) ->
      ignore
        (R.Table.insert_fields t
           [
             ("name", R.Value.Text name);
             ("year", R.Value.Int year);
             ("rating", R.Value.Real rating);
             ("note", (match note with None -> R.Value.Null | Some s -> R.Value.Text s));
             ("sparkling", R.Value.Bool sparkling);
           ]))
    [
      ("margaux", 2015, 4.5, Some "big Tannins", false);
      ("riesling", 2019, 4.0, None, false);
      ("cava", 2019, 3.5, Some "festive", true);
      ("barolo", 2011, 4.8, Some "tar and roses", false);
      ("txakoli", 2021, 3.9, None, true);
    ];
  db

let names (r : R.Sql.result) =
  List.map
    (function R.Value.Text s :: _ -> s | _ -> "?")
    r.R.Sql.rows

let test_select_all () =
  let db = db_fixture () in
  let r = R.Sql.query db "SELECT * FROM wines" in
  Alcotest.(check int) "five rows" 5 (List.length r.R.Sql.rows);
  Alcotest.(check (list string)) "rowid first column" [ "rowid"; "name"; "year"; "rating"; "note"; "sparkling" ]
    r.R.Sql.columns

let test_projection () =
  let db = db_fixture () in
  let r = R.Sql.query db "SELECT name, year FROM wines LIMIT 2" in
  Alcotest.(check (list string)) "columns" [ "name"; "year" ] r.R.Sql.columns;
  Alcotest.(check int) "limit" 2 (List.length r.R.Sql.rows)

let test_where_and_order () =
  let db = db_fixture () in
  let r =
    R.Sql.query db
      "SELECT name FROM wines WHERE year = 2019 ORDER BY rating DESC"
  in
  Alcotest.(check (list string)) "2019 wines by rating" [ "riesling"; "cava" ] (names r)

let test_comparisons () =
  let db = db_fixture () in
  let q s = List.length (R.Sql.query db s).R.Sql.rows in
  Alcotest.(check int) "gt" 3 (q "SELECT * FROM wines WHERE year > 2015");
  Alcotest.(check int) "ge" 4 (q "SELECT * FROM wines WHERE year >= 2015");
  Alcotest.(check int) "ne" 4 (q "SELECT * FROM wines WHERE name <> 'cava'");
  Alcotest.(check int) "float cmp" 2 (q "SELECT * FROM wines WHERE rating >= 4.5");
  Alcotest.(check int) "bool eq" 2 (q "SELECT * FROM wines WHERE sparkling = TRUE");
  Alcotest.(check int) "between" 3 (q "SELECT * FROM wines WHERE year BETWEEN 2015 AND 2020")

let test_null_and_like () =
  let db = db_fixture () in
  let q s = names (R.Sql.query db s) in
  Alcotest.(check (list string)) "is null" [ "riesling"; "txakoli" ]
    (q "SELECT name FROM wines WHERE note IS NULL");
  Alcotest.(check (list string)) "is not null" [ "margaux"; "cava"; "barolo" ]
    (q "SELECT name FROM wines WHERE note IS NOT NULL");
  Alcotest.(check (list string)) "like is case-insensitive contains" [ "margaux" ]
    (q "SELECT name FROM wines WHERE note LIKE 'tannins'")

let test_boolean_connectives () =
  let db = db_fixture () in
  let q s = names (R.Sql.query db s) in
  Alcotest.(check (list string)) "and" [ "cava" ]
    (q "SELECT name FROM wines WHERE year = 2019 AND sparkling = TRUE");
  Alcotest.(check (list string)) "or" [ "margaux"; "barolo" ]
    (q "SELECT name FROM wines WHERE year = 2015 OR year = 2011");
  Alcotest.(check (list string)) "not" [ "margaux"; "riesling"; "barolo" ]
    (q "SELECT name FROM wines WHERE NOT sparkling = TRUE");
  (* AND binds tighter than OR. *)
  Alcotest.(check (list string)) "precedence" [ "margaux"; "cava" ]
    (q "SELECT name FROM wines WHERE year = 2015 OR year = 2019 AND sparkling = TRUE");
  Alcotest.(check (list string)) "parens override" [ "riesling"; "cava" ]
    (q "SELECT name FROM wines WHERE (year = 2015 OR year = 2019) AND year > 2016")

let test_count () =
  let db = db_fixture () in
  match (R.Sql.query db "SELECT COUNT(*) FROM wines WHERE sparkling = FALSE").R.Sql.rows with
  | [ [ R.Value.Int 3 ] ] -> ()
  | _ -> Alcotest.fail "count wrong"

let test_aggregates () =
  let db = db_fixture () in
  let one s =
    match (R.Sql.query db s).R.Sql.rows with
    | [ [ v ] ] -> v
    | _ -> Alcotest.failf "expected one cell from %s" s
  in
  (match one "SELECT SUM(year) FROM wines" with
  | R.Value.Real total -> Alcotest.(check (float 1e-9)) "sum" 10085.0 total
  | _ -> Alcotest.fail "sum kind");
  (match one "SELECT AVG(rating) FROM wines" with
  | R.Value.Real avg -> Alcotest.(check (float 1e-9)) "avg" 4.14 avg
  | _ -> Alcotest.fail "avg kind");
  Alcotest.(check bool) "min" true (one "SELECT MIN(year) FROM wines" = R.Value.Int 2011);
  Alcotest.(check bool) "max" true (one "SELECT MAX(year) FROM wines" = R.Value.Int 2021);
  (* NULLs are skipped; empty input yields NULL. *)
  Alcotest.(check bool) "min over notes skips nulls" true
    (one "SELECT MIN(note) FROM wines" = R.Value.Text "big Tannins");
  Alcotest.(check bool) "avg of nothing" true
    (one "SELECT AVG(rating) FROM wines WHERE year = 1900" = R.Value.Null)

let test_group_by () =
  let db = db_fixture () in
  let r = R.Sql.query db "SELECT year, COUNT(*) FROM wines GROUP BY year" in
  Alcotest.(check (list string)) "columns" [ "year"; "count" ] r.R.Sql.columns;
  (match r.R.Sql.rows with
  | [ R.Value.Int 2019; R.Value.Int 2 ] :: rest ->
    Alcotest.(check int) "remaining groups" 3 (List.length rest)
  | _ -> Alcotest.fail "expected 2019 group first");
  let limited =
    R.Sql.query db "SELECT year, COUNT(*) FROM wines WHERE sparkling = FALSE GROUP BY year LIMIT 2"
  in
  Alcotest.(check int) "limit applies to groups" 2 (List.length limited.R.Sql.rows)

let test_group_by_errors () =
  let bad input =
    try
      ignore (R.Sql.parse input);
      Alcotest.failf "accepted %S" input
    with R.Sql.Parse_error _ -> ()
  in
  bad "SELECT name FROM wines GROUP BY year";
  bad "SELECT year, COUNT(*) FROM wines GROUP BY year ORDER BY year";
  bad "SELECT SUM(year), name FROM wines"

let test_string_escaping () =
  let db = db_fixture () in
  let t = R.Database.table db "wines" in
  let _ =
    R.Table.insert_fields t
      [
        ("name", R.Value.Text "l'etoile");
        ("year", R.Value.Int 2000);
        ("rating", R.Value.Real 4.0);
        ("note", R.Value.Null);
        ("sparkling", R.Value.Bool false);
      ]
  in
  Alcotest.(check int) "escaped quote matches" 1
    (List.length (R.Sql.query db "SELECT * FROM wines WHERE name = 'l''etoile'").R.Sql.rows)

let test_explain_uses_planner () =
  let db = db_fixture () in
  let explain q = R.Sql.plan_to_string (R.Sql.explain_query db q).R.Sql.plan in
  Alcotest.(check string) "eq via index" "index wines_year (eq)"
    (explain "SELECT * FROM wines WHERE year = 2019");
  Alcotest.(check string) "range via index" "index wines_year (range)"
    (explain "SELECT * FROM wines WHERE year BETWEEN 2012 AND 2020");
  Alcotest.(check string) "scan otherwise" "full scan"
    (explain "SELECT * FROM wines WHERE rating > 4.0")

let test_sql_agrees_with_programmatic () =
  let db = db_fixture () in
  let t = R.Database.table db "wines" in
  let sql = R.Sql.query db "SELECT name FROM wines WHERE year >= 2015 ORDER BY year" in
  let prog =
    R.Query_exec.select
      ~where:(R.Predicate.Cmp (R.Predicate.Ge, "year", R.Value.Int 2015))
      ~order_by:[ R.Query_exec.Asc "year" ] t
  in
  Alcotest.(check (list string)) "same answers"
    (List.map (fun (_, row) -> R.Value.to_text row.(0)) prog)
    (names sql)

let test_parse_errors () =
  let bad input =
    try
      ignore (R.Sql.parse input);
      Alcotest.failf "accepted %S" input
    with R.Sql.Parse_error _ -> ()
  in
  bad "";
  bad "SELEC * FROM t";
  bad "SELECT FROM t";
  bad "SELECT * FROM t WHERE";
  bad "SELECT * FROM t WHERE x ==";
  bad "SELECT * FROM t LIMIT 'two'";
  bad "SELECT * FROM t WHERE name LIKE 42";
  bad "SELECT * FROM t extra";
  bad "SELECT * FROM t WHERE name = 'unterminated"

let test_execution_errors () =
  let db = db_fixture () in
  (try
     ignore (R.Sql.query db "SELECT * FROM missing");
     Alcotest.fail "missing table accepted"
   with R.Errors.No_such_table _ -> ());
  try
    ignore (R.Sql.query db "SELECT * FROM wines WHERE ghost = 1");
    Alcotest.fail "missing column accepted"
  with R.Errors.No_such_column _ -> ()

let test_render () =
  let db = db_fixture () in
  let out = R.Sql.render (R.Sql.query db "SELECT name, year FROM wines LIMIT 1") in
  Alcotest.(check bool) "has header" true
    (Provkit_util.Strutil.contains_substring ~needle:"name" out);
  Alcotest.(check bool) "has value" true
    (Provkit_util.Strutil.contains_substring ~needle:"margaux" out)

let test_query_over_provenance_image () =
  (* End to end: SQL over the persisted provenance schema. *)
  let _web, _engine, api, _trace = Core_fixtures.simulated ~seed:61 ~days:1 () in
  let db = Core.Api.persist api in
  let downloads = R.Sql.query db "SELECT COUNT(*) FROM prov_node WHERE kind = 3" in
  (match downloads.R.Sql.rows with
  | [ [ R.Value.Int n ] ] -> Alcotest.(check bool) "download nodes countable" true (n >= 0)
  | _ -> Alcotest.fail "bad count shape");
  let recent =
    R.Sql.query db "SELECT label FROM prov_node WHERE kind = 4 ORDER BY time DESC LIMIT 5"
  in
  Alcotest.(check bool) "search terms queryable" true (List.length recent.R.Sql.rows <= 5)

let suite =
  [
    Alcotest.test_case "select all" `Quick test_select_all;
    Alcotest.test_case "projection" `Quick test_projection;
    Alcotest.test_case "where + order" `Quick test_where_and_order;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "null and like" `Quick test_null_and_like;
    Alcotest.test_case "boolean connectives" `Quick test_boolean_connectives;
    Alcotest.test_case "count" `Quick test_count;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "group by" `Quick test_group_by;
    Alcotest.test_case "group by errors" `Quick test_group_by_errors;
    Alcotest.test_case "string escaping" `Quick test_string_escaping;
    Alcotest.test_case "explain" `Quick test_explain_uses_planner;
    Alcotest.test_case "agrees with programmatic" `Quick test_sql_agrees_with_programmatic;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "execution errors" `Quick test_execution_errors;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "sql over provenance image" `Quick test_query_over_provenance_image;
  ]
