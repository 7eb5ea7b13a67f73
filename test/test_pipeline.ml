(* The query pipeline against a reference evaluator.  The level sweep in
   test_query_cache.ml checks that Off, Stats and Profile agree with one
   another; this suite checks that they agree with the right answer.

   Every case is one (operation, predicate shape, access path) triple.
   The reference is deliberately naive — Table.rows filtered by
   Predicate.eval, sorted and grouped by hand — so it shares nothing
   with the pipeline but the predicate evaluator.
   Each case pins, at every level:
   - the result, equal to the reference's;
   - the plan, written out per shape for the indexed table (the
     unindexed one always scans);
   - rows_scanned, exactly: the rows satisfying the part of the
     predicate the access path enforces (the whole table for a scan);
   - rows_returned, and a profile whose root emits it and whose probe
     leaf emits rows_scanned. *)

module R = Relstore
module P = Relstore.Predicate
module Q = Relstore.Query_exec
module Value = Relstore.Value

let schema name =
  R.Schema.make ~name [ R.Column.make "k" Value.Tint; R.Column.make ~nullable:true "v" Value.Ttext ]

let vals = [| "ant"; "bee"; "cat"; "dog"; "eel" |]

(* 48 inserts with k out of rowid order, then point updates, so the
   index has been maintained, not just built.  With [indexed] the index
   exists before the first insert. *)
let fixture ~indexed =
  let t = R.Table.create (schema "kv") in
  if indexed then R.Table.add_index t ~name:"by_k" ~columns:[ "k" ];
  let ids =
    List.init 48 (fun i ->
        let v = if i mod 7 = 0 then Value.Null else Value.Text vals.(i mod 5) in
        (i, R.Table.insert_fields t [ ("k", Value.Int (i * 5 mod 8)); ("v", v) ]))
  in
  List.iter
    (fun (i, id) ->
      if i mod 9 = 4 then R.Table.update_field t id "k" (Value.Int ((i * 5 mod 8) + 3)))
    ids;
  t

let k n = Value.Int n

(* (name, predicate, plan on the indexed table, the sub-predicate its
   access path enforces). *)
let shapes =
  let range = Q.Index_range "by_k" and eq = Q.Index_eq "by_k" in
  let self p plan = (p, plan, p) in
  let scan p = (p, Q.Full_scan, P.True) in
  [
    ("true", scan P.True);
    ("eq", self (P.Eq ("k", k 3)) eq);
    ("eq absent key", self (P.Eq ("k", k 99)) eq);
    ("ne", scan (P.Cmp (P.Ne, "k", k 3)));
    ("lt", self (P.Cmp (P.Lt, "k", k 3)) range);
    ("le", self (P.Cmp (P.Le, "k", k 3)) range);
    ("gt", self (P.Cmp (P.Gt, "k", k 5)) range);
    ("ge", self (P.Cmp (P.Ge, "k", k 5)) range);
    ("between", self (P.Between ("k", k 2, k 5)) range);
    ("between inverted", self (P.Between ("k", k 5, k 2)) range);
    ("merged window", self (P.And [ P.Cmp (P.Gt, "k", k 1); P.Cmp (P.Le, "k", k 4) ]) range);
    ("contradictory window", self (P.And [ P.Cmp (P.Gt, "k", k 5); P.Cmp (P.Lt, "k", k 3) ]) range);
    ("eq with residual", (P.And [ P.Eq ("k", k 2); P.Like ("v", "e") ], eq, P.Eq ("k", k 2)));
    ( "range with residual",
      (P.And [ P.Cmp (P.Ge, "k", k 4); P.Not_null "v" ], range, P.Cmp (P.Ge, "k", k 4)) );
    ("like", scan (P.Like ("v", "a")));
    ("or", scan (P.Or [ P.Eq ("k", k 1); P.Eq ("v", Value.Text "cat") ]));
    ("not", scan (P.Not (P.Eq ("k", k 2))));
    ("is null", scan (P.Is_null "v"));
    ("custom", scan (P.Custom ("odd_k", fun s row -> R.Row.int s row "k" mod 2 = 1)));
    ("point window", self (P.Between ("k", k 3, k 3)) range);
    ( "tighter exclusive bound",
      self (P.And [ P.Cmp (P.Ge, "k", k 3); P.Cmp (P.Gt, "k", k 3) ]) range );
    ( "nested window",
      self (P.And [ P.And [ P.Cmp (P.Ge, "k", k 2) ]; P.Cmp (P.Lt, "k", k 6) ]) range );
    (* An equality outranks a range on the same index. *)
    ("eq over range", (P.And [ P.Cmp (P.Gt, "k", k 1); P.Eq ("k", k 3) ], eq, P.Eq ("k", k 3)));
    (* The first equality on the column is the probe key; the other is
       a residual no candidate passes. *)
    ("conflicting eqs", (P.And [ P.Eq ("k", k 2); P.Eq ("k", k 3) ], eq, P.Eq ("k", k 2)));
    ("eq on unindexed column", scan (P.Eq ("v", Value.Text "cat")));
    (* The first range-constrained column decides, and [v] has no index. *)
    ( "unindexed range first",
      scan (P.And [ P.Cmp (P.Gt, "v", Value.Text "bee"); P.Cmp (P.Ge, "k", k 4) ]) );
  ]

(* --- the reference evaluator --- *)

let matching t where =
  List.filter (fun (_, row) -> P.eval where (R.Table.schema t) row) (R.Table.rows t)

let get t row col = R.Row.get (R.Table.schema t) row col

let order_by = [ Q.Desc "v"; Q.Asc "k" ]
let limit = 10

let ref_select t where =
  let cmp (ia, a) (ib, b) =
    let c = Value.compare (get t b "v") (get t a "v") in
    if c <> 0 then c
    else
      let c = Value.compare (get t a "k") (get t b "k") in
      if c <> 0 then c else Int.compare ia ib
  in
  List.filteri (fun i _ -> i < limit) (List.sort cmp (matching t where))

(* No order_by: ascending rowid, whatever order the access path
   yields candidates in (a range probe yields one rowid run per key). *)
let ref_select_rowid t where =
  List.sort (fun (a, _) (b, _) -> Int.compare a b) (matching t where)

let ref_group_count t where =
  let groups =
    List.fold_left
      (fun acc (_, row) ->
        let key = get t row "v" in
        match List.partition (fun (g, _) -> Value.equal g key) acc with
        | [ (_, n) ], rest -> (key, n + 1) :: rest
        | _, rest -> (key, 1) :: rest)
      [] (matching t where)
  in
  List.sort
    (fun (ka, na) (kb, nb) -> if na <> nb then Int.compare nb na else Value.compare ka kb)
    groups

(* --- checks --- *)

let plan_t =
  Alcotest.testable
    (fun fmt -> function
      | Q.Full_scan -> Format.fprintf fmt "Full_scan"
      | Q.Index_eq n -> Format.fprintf fmt "Index_eq %s" n
      | Q.Index_range n -> Format.fprintf fmt "Index_range %s" n)
    ( = )

(* One query, runnable at every level. *)
type 'r runner = { run : 'i. 'i Q.level -> 'r * 'i }

(* Every level returns [expected]; Stats and Profile report [plan],
   [scanned] and [returned]; the profile accounts for them. *)
let check_levels { run } ~expected ~returned ~plan ~scanned =
  let off = fst (run Q.Off) in
  let off_again = fst (run Q.Off) in
  let stats_result, stats = run Q.Stats in
  let profile_result, (profile_stats, profile) = run Q.Profile in
  Alcotest.(check bool) "Off matches the reference" true (off = expected);
  Alcotest.(check bool) "a repeated Off run matches the reference" true (off_again = expected);
  Alcotest.(check bool) "Stats matches the reference" true (stats_result = expected);
  Alcotest.(check bool) "Profile matches the reference" true (profile_result = expected);
  List.iter
    (fun (level, (s : Q.exec_stats)) ->
      Alcotest.check plan_t (level ^ " plan") plan s.Q.plan;
      Alcotest.(check int) (level ^ " rows_scanned") scanned s.Q.rows_scanned;
      Alcotest.(check int) (level ^ " rows_returned") returned s.Q.rows_returned)
    [ ("Stats", stats); ("Profile", profile_stats) ];
  Alcotest.(check int) "profile root emits the returned rows" returned profile.Q.rows_out;
  match profile.Q.children with
  | { Q.op = "probe"; rows_out; _ } :: _ ->
    Alcotest.(check int) "probe leaf emits the scanned rows" scanned rows_out
  | _ -> Alcotest.fail "a profile leads with its probe leaf"

type op = Select | Select_rowid | Count | Group_count

let op_name = function
  | Select -> "select"
  | Select_rowid -> "select rowid order"
  | Count -> "count"
  | Group_count -> "group_count"

let run_case op ~indexed (where, plan, probe) () =
  let t = fixture ~indexed in
  let plan = if indexed then plan else Q.Full_scan in
  let scanned = List.length (matching t (if indexed then probe else P.True)) in
  let single runner ~expected ~returned = check_levels runner ~expected ~returned ~plan ~scanned in
  match op with
  | Select ->
    let expected = ref_select t where in
    single ~expected ~returned:(List.length expected)
      { run = (fun level -> Q.select_at level ~where ~order_by ~limit t) }
  | Select_rowid ->
    let expected = ref_select_rowid t where in
    single ~expected ~returned:(List.length expected)
      { run = (fun level -> Q.select_at level ~where t) }
  | Count ->
    single ~expected:(List.length (matching t where)) ~returned:1
      { run = (fun level -> Q.count_at level ~where t) }
  | Group_count ->
    let expected = ref_group_count t where in
    single ~expected ~returned:(List.length expected)
      { run = (fun level -> Q.group_count_at level ~by:"v" ~where t) }

(* The executor tests rows with [Predicate.compile]; the reference
   above uses [Predicate.eval].  They agree on every fixture row. *)
let compile_case where () =
  let t = fixture ~indexed:false in
  let schema = R.Table.schema t in
  let test = P.compile where schema in
  R.Table.iter t (fun rowid row ->
      Alcotest.(check bool)
        (Printf.sprintf "row %d" rowid)
        (P.eval where schema row) (test row))

let suite =
  List.map
    (fun (name, (where, _, _)) ->
      Alcotest.test_case ("compile " ^ name) `Quick (compile_case where))
    shapes
  @ List.concat_map
    (fun op ->
      List.concat_map
        (fun indexed ->
          List.map
            (fun (name, shape) ->
              Alcotest.test_case
                (Printf.sprintf "%s %s (%s)" (op_name op) name
                   (if indexed then "indexed" else "unindexed"))
                `Quick (run_case op ~indexed shape))
            shapes)
        [ true; false ])
    [ Select; Select_rowid; Count; Group_count ]
