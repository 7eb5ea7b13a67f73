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
  | _ -> Alcotest.fail "a stale entry must have been dropped");
  Alcotest.(check int) "cache empty again" 0 (QC.length c)

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
  Alcotest.(check int) "bounded at capacity" 3 (QC.length c);
  QC.set_capacity c 1;
  Alcotest.(check int) "shrinking evicts immediately" 1 (QC.length c);
  (match QC.find c ~key:"10" ~epoch:0 with
  | QC.Hit _ -> ()
  | _ -> Alcotest.fail "the hottest entry survives the shrink");
  QC.set_capacity c 0;
  ignore (QC.put c ~key:"x" ~epoch:0 (QC.Count 0));
  Alcotest.(check int) "capacity 0 stores nothing" 0 (QC.length c)

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
  let t = kv_table () in
  for i = 0 to 5 do
    ignore (R.Table.insert_fields t (kv i "x"))
  done;
  let p =
    R.Predicate.Custom ("odd_k", fun schema row -> R.Row.int schema row "k" mod 2 = 1)
  in
  let r1 = QE.select ~where:p t in
  Alcotest.(check int) "closure predicates store nothing" 0 (QE.cache_length ());
  let r2 = QE.select ~where:p t in
  Alcotest.(check bool) "cold reruns agree" true (r1 = r2);
  Alcotest.(check int) "three odd keys" 3 (List.length r1)

let test_cache_disabled_bypasses () =
  with_clean_cache @@ fun () ->
  let t = kv_table () in
  ignore (R.Table.insert_fields t (kv 1 "a"));
  QE.set_cache_enabled false;
  ignore (QE.select t);
  Alcotest.(check int) "disabled cache stores nothing" 0 (QE.cache_length ());
  QE.set_cache_enabled true;
  ignore (QE.select t);
  Alcotest.(check int) "re-enabled cache stores again" 1 (QE.cache_length ())

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
  Alcotest.(check int) "live entries bounded by capacity" 4 (QE.cache_length ());
  Alcotest.(check int) "the overflow was evicted, and counted" (e0 + 16) (evictions ())

(* An instrumented join runs its inputs cold: repeating it on
   unmodified tables must not read them back from the result cache. *)
let test_instrumented_join_bypasses_cache () =
  with_clean_cache @@ fun () ->
  with_metrics_on @@ fun () ->
  let left = kv_table () and right = kv_table () in
  for i = 0 to 9 do
    ignore (R.Table.insert_fields left (kv (i mod 3) "l"));
    ignore (R.Table.insert_fields right (kv (i mod 5) "r"))
  done;
  let hits = counter Provkit_obs.Names.query_cache_hits in
  let on = [ ("k", "k") ] in
  let first, _ = QE.join_at QE.Stats ~on left right in
  let h0 = hits () in
  let again, _ = QE.join_at QE.Stats ~on left right in
  let profiled, _ = QE.join_at QE.Profile ~on left right in
  Alcotest.(check int) "no input served from the cache" h0 (hits ());
  Alcotest.(check int) "each left row meets two right rows" 20 (List.length first);
  Alcotest.(check bool) "every run joins the same pairs" true (first = again && again = profiled)

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
  let rng = Test_seed.prng ~salt:91 in
  let t = kv_table ~index:true () in
  (* Unindexed: joins into [t] probe its index, joins into [u] hash. *)
  let u = kv_table () in
  let live = ref [] in
  let vals = [| "ant"; "bee"; "cat"; "dog"; "eel" |] in
  let key () = R.Value.Int (Prng.int rng 8) in
  let insert table =
    let v = if Prng.int rng 6 = 0 then R.Value.Null else R.Value.Text (Prng.pick rng vals) in
    R.Table.insert_fields table [ ("k", key ()); ("v", v) ]
  in
  let random_pred () =
    match Prng.int rng 11 with
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
    | _ -> R.Predicate.Custom ("odd_k", fun schema row -> R.Row.int schema row "k" mod 2 = 1)
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
    | 0 | 1 -> if Prng.int rng 4 = 0 then ignore (insert u) else live := insert t :: !live
    | 2 when !live <> [] -> R.Table.update_field t (pick_live ()) "k" (key ())
    | 3 when !live <> [] ->
      let id = pick_live () in
      R.Table.delete t id;
      live := List.filter (fun x -> x <> id) !live
    | _ -> begin
      incr queries;
      let where = random_pred () in
      match Prng.int rng 4 with
      | 0 ->
        let order_by = random_order () in
        let limit = if Prng.int rng 2 = 0 then None else Some (Prng.int rng 6) in
        let run level = QE.select_at level ?order_by ~where ?limit t in
        check_levels step "select" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
      | 1 ->
        let run level = QE.count_at level ~where t in
        check_levels step "count" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
      | 2 ->
        let by = if Prng.int rng 2 = 0 then "k" else "v" in
        let run level = QE.group_count_at level ~by ~where t in
        check_levels step "group_count" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
      | _ ->
        let left, right = if Prng.int rng 2 = 0 then (u, t) else (t, u) in
        let where_right = random_pred () in
        let run level =
          QE.join_at level ~where_left:where ~where_right ~on:[ ("k", "k") ] left right
        in
        check_levels step "join" (fst (run QE.Off)) (run QE.Stats) (run QE.Profile)
    end
  done;
  Alcotest.(check bool) "sweep ran a meaningful number of queries" true (!queries > 300);
  Alcotest.(check bool) "the cache was actually exercised" true (QE.cache_length () > 0)

let suite =
  [
    Alcotest.test_case "lru hit/stale/absent" `Quick test_lru_hit_stale_absent;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru capacity" `Quick test_lru_capacity;
    Alcotest.test_case "hit/miss/invalidation counters" `Quick
      test_select_hit_miss_invalidate_counters;
    Alcotest.test_case "custom predicates never cached" `Quick
      test_custom_predicate_never_cached;
    Alcotest.test_case "disabled cache bypasses" `Quick test_cache_disabled_bypasses;
    Alcotest.test_case "eviction bound via Query_exec" `Quick
      test_eviction_bound_via_query_exec;
    Alcotest.test_case "instrumented join bypasses the cache" `Quick
      test_instrumented_join_bypasses_cache;
    Alcotest.test_case "property: cached = cold under interleaved mutation" `Quick
      test_property_cached_equals_cold;
  ]
