(* The epoch-validated query-result cache: the LRU container itself,
   its Query_exec integration (hit/miss/invalidation counters against
   ground truth), and a seeded property sweep asserting that every
   executor level — cached [Off], [Stats], [Profile] — answers
   identically across randomized interleavings of queries and table
   mutations. *)

module R = Relstore
module QC = Relstore.Query_cache
module QE = Relstore.Query_exec
module Prng = Provkit_util.Prng

let kv_schema () =
  R.Schema.make ~name:"kv"
    [ R.Column.make "k" R.Value.Tint; R.Column.make ~nullable:true "v" R.Value.Ttext ]

let kv_table ?(index = false) () =
  let t = R.Table.create (kv_schema ()) in
  if index then R.Table.add_index t ~name:"by_k" ~columns:[ "k" ];
  t

let kv k v = [ ("k", R.Value.Int k); ("v", R.Value.Text v) ]

(* The Query_exec cache is process-wide state: every test restores the
   defaults so suites stay order-independent. *)
let with_clean_cache f =
  let reset () =
    QE.set_cache_enabled true;
    QE.set_cache_capacity 512;
    QE.clear_cache ()
  in
  reset ();
  Fun.protect ~finally:reset f

let with_metrics_on f =
  let was = Provkit_obs.Metrics.enabled () in
  Provkit_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Provkit_obs.Metrics.set_enabled was) f

(* --- the LRU container --- *)

let test_lru_hit_stale_absent () =
  let c = QC.create ~capacity:4 () in
  ignore (QC.put c ~key:"a" ~epoch:7 (QC.Count 3));
  (match QC.find c ~key:"a" ~epoch:7 with
  | QC.Hit (QC.Count 3) -> ()
  | _ -> Alcotest.fail "expected a hit at the stored epoch");
  (match QC.find c ~key:"a" ~epoch:8 with
  | QC.Stale -> ()
  | _ -> Alcotest.fail "a moved epoch must report stale");
  (match QC.find c ~key:"a" ~epoch:8 with
  | QC.Absent -> ()
  | _ -> Alcotest.fail "a stale entry must have been dropped")

let test_lru_eviction_order () =
  let c = QC.create ~capacity:2 () in
  ignore (QC.put c ~key:"a" ~epoch:0 (QC.Count 1));
  ignore (QC.put c ~key:"b" ~epoch:0 (QC.Count 2));
  (* Touch [a]: it becomes most-recent, so [b] is the LRU victim. *)
  (match QC.find c ~key:"a" ~epoch:0 with
  | QC.Hit _ -> ()
  | _ -> Alcotest.fail "a expected");
  Alcotest.(check int) "put over capacity evicts one" 1
    (QC.put c ~key:"c" ~epoch:0 (QC.Count 3));
  (match QC.find c ~key:"b" ~epoch:0 with
  | QC.Absent -> ()
  | _ -> Alcotest.fail "the untouched entry must be the victim");
  (match (QC.find c ~key:"a" ~epoch:0, QC.find c ~key:"c" ~epoch:0) with
  | QC.Hit _, QC.Hit _ -> ()
  | _ -> Alcotest.fail "touched and fresh entries survive")

let test_lru_capacity () =
  let c = QC.create ~capacity:3 () in
  for i = 1 to 10 do
    ignore (QC.put c ~key:(string_of_int i) ~epoch:0 (QC.Count i))
  done;
  let present key = match QC.find c ~key ~epoch:0 with QC.Hit _ -> true | _ -> false in
  Alcotest.(check (list bool)) "bounded at capacity" [ false; true; true; true ]
    (List.map present [ "7"; "8"; "9"; "10" ]);
  QC.set_capacity c 1;
  Alcotest.(check bool) "shrinking evicts immediately" false (present "9");
  Alcotest.(check bool) "the hottest entry survives the shrink" true (present "10");
  QC.set_capacity c 0;
  ignore (QC.put c ~key:"x" ~epoch:0 (QC.Count 0));
  Alcotest.(check bool) "capacity 0 stores nothing" false (present "x")

(* --- Query_exec integration --- *)

let counter name () = Provkit_obs.Metrics.counter_value name

let test_select_hit_miss_invalidate_counters () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let t = kv_table () in
  for i = 0 to 9 do
    ignore (R.Table.insert_fields t (kv (i mod 3) (Printf.sprintf "row%d" i)))
  done;
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let misses = counter Provkit_obs.Names.query_cache_misses in
  let invalidations = counter Provkit_obs.Names.query_cache_invalidations in
  let h0, m0, i0 = (hits (), misses (), invalidations ()) in
  let p = R.Predicate.Eq ("k", R.Value.Int 1) in
  let cold = QE.select ~where:p t in
  Alcotest.(check int) "first run misses" (m0 + 1) (misses ());
  let warm = QE.select ~where:p t in
  Alcotest.(check int) "second run hits" (h0 + 1) (hits ());
  Alcotest.(check bool) "hit returns the identical result" true (warm = cold);
  (* Any table mutation makes the entry stale on its next lookup. *)
  ignore (R.Table.insert_fields t (kv 1 "fresh"));
  let after = QE.select ~where:p t in
  Alcotest.(check int) "mutation invalidates" (i0 + 1) (invalidations ());
  Alcotest.(check int) "stale lookup re-runs cold" (m0 + 2) (misses ());
  Alcotest.(check int) "the new row is visible" (List.length cold + 1) (List.length after);
  let again = QE.select ~where:p t in
  Alcotest.(check int) "refreshed entry hits again" (h0 + 2) (hits ());
  Alcotest.(check bool) "and agrees with the cold rerun" true (again = after)

let test_custom_predicate_never_cached () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let t = kv_table () in
  for i = 0 to 5 do
    ignore (R.Table.insert_fields t (kv i "x"))
  done;
  let p =
    R.Predicate.Custom ("odd_k", fun schema row -> R.Row.int schema row "k" mod 2 = 1)
  in
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let misses = counter Provkit_obs.Names.query_cache_misses in
  let h0, m0 = (hits (), misses ()) in
  let r1 = QE.select ~where:p t in
  let r2 = QE.select ~where:p t in
  Alcotest.(check bool) "cold reruns agree" true (r1 = r2);
  Alcotest.(check int) "three odd keys" 3 (List.length r1);
  (* A closure anywhere in the tree makes the whole predicate keyless. *)
  let nested =
    [ R.Predicate.Not p; R.Predicate.And [ R.Predicate.Eq ("v", R.Value.Text "x"); p ] ]
  in
  List.iter
    (fun where ->
      for _ = 1 to 2 do
        ignore (QE.select ~where t);
        ignore (QE.count ~where t);
        ignore (QE.group_count ~by:"v" ~where t)
      done)
    nested;
  Alcotest.(check int) "no hit counted" h0 (hits ());
  Alcotest.(check int) "no miss counted" m0 (misses ())

let test_key_separates_table_and_shape () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let fill t =
    for i = 0 to 8 do
      ignore (R.Table.insert_fields t (kv (i mod 3) (Printf.sprintf "row%d" i)))
    done
  in
  let t1 = kv_table () and t2 = kv_table () in
  fill t1;
  fill t2;
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let misses = counter Provkit_obs.Names.query_cache_misses in
  let p = R.Predicate.Eq ("k", R.Value.Int 1) in
  (* Each call is one key; [expect] says whether it must find an entry. *)
  let run what expect f =
    let h0, m0 = (hits (), misses ()) in
    let r = f () in
    Alcotest.(check (pair int int)) what
      (if expect = `Hit then (h0 + 1, m0) else (h0, m0 + 1))
      (hits (), misses ());
    r
  in
  let r1 = run "t1 select misses" `Miss (fun () -> QE.select ~where:p t1) in
  (* Same schema name, same rows, same epoch history: only the uid differs. *)
  let r2 = run "equal twin table misses" `Miss (fun () -> QE.select ~where:p t2) in
  Alcotest.(check bool) "twins agree" true (r1 = r2);
  let n = run "count is its own shape" `Miss (fun () -> QE.count ~where:p t1) in
  Alcotest.(check int) "count = select length" (List.length r1) n;
  ignore (run "count hits" `Hit (fun () -> QE.count ~where:p t1));
  let l1 = run "limit 1 misses" `Miss (fun () -> QE.select ~where:p ~limit:1 t1) in
  let l2 = run "limit 2 misses" `Miss (fun () -> QE.select ~where:p ~limit:2 t1) in
  Alcotest.(check (pair int int)) "limits honoured" (1, 2) (List.length l1, List.length l2);
  let desc =
    run "order is part of the key" `Miss (fun () ->
        QE.select ~where:p ~order_by:[ QE.Desc "v" ] t1)
  in
  Alcotest.(check bool) "descending order" true (desc = List.rev r1);
  ignore (run "group by k misses" `Miss (fun () -> QE.group_count ~by:"k" t1));
  ignore (run "group by v misses" `Miss (fun () -> QE.group_count ~by:"v" t1));
  ignore (run "group by k hits" `Hit (fun () -> QE.group_count ~by:"k" t1));
  (* A snapshot gets a fresh uid: it never reads the source's entries. *)
  let snap = R.Table.snapshot t1 in
  let rs = run "snapshot misses" `Miss (fun () -> QE.select ~where:p snap) in
  Alcotest.(check bool) "snapshot agrees" true (rs = r1);
  ignore (run "source still hits" `Hit (fun () -> QE.select ~where:p t1))

let test_cache_disabled_bypasses () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let t = kv_table () in
  ignore (R.Table.insert_fields t (kv 1 "a"));
  QE.set_cache_enabled false;
  let h0 = hits () in
  ignore (QE.select t);
  ignore (QE.select t);
  Alcotest.(check int) "disabled cache stores nothing" h0 (hits ());
  QE.set_cache_enabled true;
  ignore (QE.select t);
  ignore (QE.select t);
  Alcotest.(check int) "re-enabled cache stores again" (h0 + 1) (hits ())

let test_eviction_bound_via_query_exec () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  QE.set_cache_capacity 4;
  let t = kv_table () in
  for i = 0 to 29 do
    ignore (R.Table.insert_fields t (kv i "x"))
  done;
  let evictions = counter Provkit_obs.Names.query_cache_evictions in
  let e0 = evictions () in
  (* 20 distinct keys (by limit) through a 4-entry cache. *)
  for lim = 1 to 20 do
    ignore (QE.select ~limit:lim t)
  done;
  Alcotest.(check int) "the overflow was evicted, and counted" (e0 + 16) (evictions ());
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let h0 = hits () in
  for lim = 17 to 20 do
    ignore (QE.select ~limit:lim t)
  done;
  Alcotest.(check int) "the newest capacity entries stay live" (h0 + 4) (hits ())

(* --- the property sweep: every level agrees, cached or cold --- *)

let same_stats (a : QE.exec_stats) (b : QE.exec_stats) =
  a.QE.plan = b.QE.plan
  && a.QE.rows_scanned = b.QE.rows_scanned
  && a.QE.rows_returned = b.QE.rows_returned

(* Off (cache on), Stats and Profile must return the same result, and
   Stats and Profile the same stats up to the clock.  The profile must
   account for those stats: a single-table profile leads with the probe
   leaf, which emits the scanned candidates, and every root emits the
   returned rows. *)
let check_levels step what off (stats_result, stats) (profile_result, (profile_stats, profile)) =
  if off <> stats_result || off <> profile_result then
    Alcotest.failf "%s: levels returned different results at step %d" what step;
  if not (same_stats stats profile_stats) then
    Alcotest.failf "%s: Stats and Profile exec_stats differ at step %d" what step;
  (match profile.QE.children with
  | { QE.op = "probe"; rows_out; _ } :: _ when rows_out <> stats.QE.rows_scanned ->
    Alcotest.failf "%s: probe emitted %d rows but %d were scanned at step %d" what rows_out
      stats.QE.rows_scanned step
  | _ -> ());
  if profile.QE.rows_out <> stats.QE.rows_returned then
    Alcotest.failf "%s: profile root emitted %d rows but %d were returned at step %d" what
      profile.QE.rows_out stats.QE.rows_returned step

let test_property_cached_equals_cold () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let h0 = hits () in
  let rng = Test_seed.prng ~salt:91 in
  let t = kv_table ~index:true () in
  let live = ref [] in
  let vals = [| "ant"; "bee"; "cat"; "dog"; "eel" |] in
  let key () = R.Value.Int (Prng.int rng 8) in
  let insert table =
    let v = if Prng.int rng 6 = 0 then R.Value.Null else R.Value.Text (Prng.pick rng vals) in
    R.Table.insert_fields table [ ("k", key ()); ("v", v) ]
  in
  (* Constants whose keys differ structurally yet compare equal as
     values (an Int and the Real of equal value), that compare equal as
     keys ([0.0] and [-0.0]), or that equal nothing but themselves
     ([nan]). *)
  let num () =
    match Prng.int rng 4 with
    | 0 -> R.Value.Real 0.0
    | 1 -> R.Value.Real (-0.0)
    | 2 -> R.Value.Real Float.nan
    | _ ->
      let k = Prng.int rng 8 in
      if Prng.int rng 2 = 0 then R.Value.Int k else R.Value.Real (float_of_int k)
  in
  let odd_k = R.Predicate.Custom ("odd_k", fun schema row -> R.Row.int schema row "k" mod 2 = 1) in
  let random_pred () =
    match Prng.int rng 15 with
    | 0 -> R.Predicate.True
    | 1 -> R.Predicate.Eq ("k", key ())
    | 2 -> R.Predicate.Cmp (R.Predicate.Ge, "k", key ())
    | 3 ->
      R.Predicate.Between
        ("k", R.Value.Int (Prng.int rng 4), R.Value.Int (4 + Prng.int rng 4))
    | 4 -> R.Predicate.Like ("v", String.sub (Prng.pick rng vals) 0 2)
    | 5 ->
      R.Predicate.Or
        [
          R.Predicate.Eq ("k", key ());
          R.Predicate.Eq ("v", R.Value.Text (Prng.pick rng vals));
        ]
    | 6 ->
      let op = if Prng.int rng 2 = 0 then R.Predicate.Lt else R.Predicate.Gt in
      R.Predicate.Cmp (op, "k", key ())
    | 7 ->
      (* Two bounds on one column merge into a single index range. *)
      let lo = key () in
      let hi = key () in
      R.Predicate.And [ R.Predicate.Cmp (R.Predicate.Gt, "k", lo); R.Predicate.Cmp (R.Predicate.Le, "k", hi) ]
    | 8 -> R.Predicate.Not (R.Predicate.Eq ("k", key ()))
    | 9 -> R.Predicate.Is_null "v"
    | 10 -> R.Predicate.Eq ("k", num ())
    | 11 ->
      let op = if Prng.int rng 2 = 0 then R.Predicate.Le else R.Predicate.Gt in
      R.Predicate.Cmp (op, "k", num ())
    | 12 -> R.Predicate.Between ("k", num (), num ())
    | 13 ->
      if Prng.int rng 2 = 0 then R.Predicate.Not odd_k
      else R.Predicate.And [ R.Predicate.Not_null "v"; odd_k ]
    | _ -> odd_k
  in
  let random_order () =
    match Prng.int rng 3 with
    | 0 -> None
    | 1 -> Some [ QE.Asc "k" ]
    | _ -> Some [ QE.Desc "v"; QE.Asc "k" ]
  in
  let pick_live () = List.nth !live (Prng.int rng (List.length !live)) in
  let queries = ref 0 in
  for step = 1 to 600 do
    match Prng.int rng 10 with
    | 0 | 1 -> live := insert t :: !live
    | 2 when !live <> [] -> R.Table.update_field t (pick_live ()) "k" (key ())
    | _ -> begin
      incr queries;
      let where = random_pred () in
      match Prng.int rng 3 with
      | 0 ->
        let order_by = random_order () in
        let limit = if Prng.int rng 2 = 0 then None else Some (Prng.int rng 6) in
        let run level = QE.select_at level ?order_by ~where ?limit t in
        check_levels step "select" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
      | 1 ->
        let run level = QE.count_at level ~where t in
        check_levels step "count" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
      | _ ->
        let by = if Prng.int rng 2 = 0 then "k" else "v" in
        let run level = QE.group_count_at level ~by ~where t in
        check_levels step "group_count" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
    end
  done;
  Alcotest.(check bool) "sweep ran a meaningful number of queries" true (!queries > 300);
  Alcotest.(check bool) "the cache was actually exercised" true (hits () > h0)

let suite =
  [
    Alcotest.test_case "lru hit/stale/absent" `Quick test_lru_hit_stale_absent;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity" `Quick test_lru_capacity;
    Alcotest.test_case "hit/miss/invalidation counters" `Quick
      test_select_hit_miss_invalidate_counters;
    Alcotest.test_case "custom predicates never cached" `Quick
      test_custom_predicate_never_cached;
    Alcotest.test_case "key separates table, shape and order" `Quick
      test_key_separates_table_and_shape;
    Alcotest.test_case "disabled cache bypasses" `Quick test_cache_disabled_bypasses;
    Alcotest.test_case "eviction bound via Query_exec" `Quick
      test_eviction_bound_via_query_exec;
    Alcotest.test_case "property: cached = cold under interleaved mutation" `Quick
      test_property_cached_equals_cold;
  ]
