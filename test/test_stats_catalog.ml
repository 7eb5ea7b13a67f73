(* Statistics catalog tests: histogram invariants, NDV accuracy,
   estimate quality on uniform and Zipf-skewed tables, freshness under
   mutation, and the misestimate detector.  The headline acceptance
   check compares the stats-guided estimator against the pre-catalog
   heuristic on a skewed table and requires it to win outright. *)

module R = Relstore
module U = Provkit_util
module Stats = Relstore.Stats
module Metrics = Provkit_obs.Metrics
module Names = Provkit_obs.Names
module Flight = Provkit_obs.Flight

let with_metrics_enabled f =
  let saved = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled saved) f

(* --- fixture tables --- *)

let uniform_table ?(n = 3_000) () =
  let rng = Test_seed.prng ~salt:41 in
  let t =
    R.Table.create
      (R.Schema.make ~name:"uniformly"
         [
           R.Column.make "k" R.Value.Tint;
           R.Column.make "u" R.Value.Tint;
           R.Column.make ~nullable:true "note" R.Value.Ttext;
         ])
  in
  R.Table.add_index t ~name:"by_k" ~columns:[ "k" ];
  for i = 1 to n do
    ignore
      (R.Table.insert_fields t
         [
           ("k", R.Value.Int (U.Prng.int rng 30));
           ("u", R.Value.Int (U.Prng.int rng 16));
           ("note", if i mod 2 = 0 then R.Value.Null else R.Value.Text "x");
         ])
  done;
  t

(* A heavy-tailed table: [rank] is indexed and Zipf-distributed (rank 0
   holds ~22 % of the rows at s = 1.1), [shard] is uniform over 16
   values with no index, [zip2] copies the Zipf draw with no index —
   the worst case for an NDV-only equality estimate. *)
let zipf_table ?(n = 4_000) () =
  let rng = Test_seed.prng ~salt:72 in
  let z = U.Zipf.create ~n:200 ~s:1.1 in
  let t =
    R.Table.create
      (R.Schema.make ~name:"zipfy"
         [
           R.Column.make "rank" R.Value.Tint;
           R.Column.make "shard" R.Value.Tint;
           R.Column.make "zip2" R.Value.Tint;
         ])
  in
  R.Table.add_index t ~name:"by_rank" ~columns:[ "rank" ];
  for _ = 1 to n do
    let r = U.Zipf.sample z rng in
    ignore
      (R.Table.insert_fields t
         [
           ("rank", R.Value.Int r);
           ("shard", R.Value.Int (U.Prng.int rng 16));
           ("zip2", R.Value.Int r);
         ])
  done;
  t

let actual_rows t p =
  let schema = R.Table.schema t in
  List.length (List.filter (fun (_, row) -> R.Predicate.eval p schema row) (R.Table.rows t))

let col_stats ts name =
  match List.assoc_opt name ts.Stats.ts_columns with
  | Some cs -> cs
  | None -> Alcotest.failf "no stats for column %s" name

(* Mismatch factor >= 1.0 between an estimate and the truth. *)
let ratio ~est ~actual =
  let e = Float.max 1.0 est and a = float_of_int (max 1 actual) in
  Float.max (e /. a) (a /. e)

(* --- histogram and NDV properties --- *)

let test_histogram_invariants () =
  let t = zipf_table () in
  let ts = Stats.analyze t in
  let cs = col_stats ts "rank" in
  let h =
    match cs.Stats.cs_histogram with
    | Some h -> h
    | None -> Alcotest.fail "indexed column must get a histogram"
  in
  Alcotest.check Alcotest.int "summarizes every non-null row" 4_000 h.Stats.hb_rows;
  let b = Array.length h.Stats.hb_bounds in
  if b = 0 || b > 32 then Alcotest.failf "bucket count %d out of range" b;
  if R.Value.compare h.Stats.hb_min h.Stats.hb_bounds.(0) > 0 then
    Alcotest.fail "min exceeds first bound";
  for i = 1 to b - 1 do
    if R.Value.compare h.Stats.hb_bounds.(i - 1) h.Stats.hb_bounds.(i) > 0 then
      Alcotest.failf "bounds decrease at bucket %d" i
  done;
  (* Rank 0 holds far more than two buckets' depth of rows, so it must
     repeat across adjacent bounds — the skew signal the equality
     estimator reads. *)
  if not (R.Value.equal h.Stats.hb_bounds.(0) h.Stats.hb_bounds.(1)) then
    Alcotest.fail "heavy hitter does not span adjacent buckets";
  (* Non-indexed columns carry no histogram. *)
  (match (col_stats ts "shard").Stats.cs_histogram with
  | None -> ()
  | Some _ -> Alcotest.fail "unexpected histogram on non-indexed column");
  Stats.invalidate t

let test_ndv_and_null_stats () =
  let t = uniform_table () in
  let ts = Stats.analyze t in
  Alcotest.check Alcotest.int "rows" 3_000 ts.Stats.ts_rows;
  Alcotest.check Alcotest.int "full scan examined all" 3_000 ts.Stats.ts_sampled;
  let cs_u = col_stats ts "u" in
  if cs_u.Stats.cs_ndv < 14.0 || cs_u.Stats.cs_ndv > 18.0 then
    Alcotest.failf "ndv(u)=%.1f, want ~16" cs_u.Stats.cs_ndv;
  let cs_note = col_stats ts "note" in
  Alcotest.check Alcotest.int "nulls counted" 1_500 cs_note.Stats.cs_nulls;
  Alcotest.check (Alcotest.float 1e-9) "null fraction" 0.5 cs_note.Stats.cs_null_frac;
  let cs_k = col_stats ts "k" in
  let truth = Hashtbl.create 64 in
  List.iter
    (fun (_, row) -> Hashtbl.replace truth (R.Value.to_string row.(0)) ())
    (R.Table.rows t);
  let true_ndv = float_of_int (Hashtbl.length truth) in
  if Float.abs (cs_k.Stats.cs_ndv -. true_ndv) > 0.1 *. true_ndv then
    Alcotest.failf "ndv(k)=%.1f, true %.0f" cs_k.Stats.cs_ndv true_ndv;
  Stats.invalidate t

let test_all_null_column () =
  let t =
    R.Table.create
      (R.Schema.make ~name:"voidish" [ R.Column.make ~nullable:true "v" R.Value.Tint ])
  in
  for _ = 1 to 10 do
    ignore (R.Table.insert_fields t [ ("v", R.Value.Null) ])
  done;
  let ts = Stats.analyze t in
  let cs = col_stats ts "v" in
  Alcotest.check (Alcotest.float 1e-9) "all null" 1.0 cs.Stats.cs_null_frac;
  Alcotest.check (Alcotest.float 1e-9) "ndv 0" 0.0 cs.Stats.cs_ndv;
  if not (R.Value.is_null cs.Stats.cs_min) then Alcotest.fail "min should be Null";
  Alcotest.check (Alcotest.float 1e-6) "eq estimate 0" 0.0
    (Stats.estimate_eq ts "v" (R.Value.Int 1));
  Stats.invalidate t

(* --- estimate quality --- *)

let check_ratio_below ~limit ~est ~actual msg =
  let r = ratio ~est ~actual in
  if r > limit then Alcotest.failf "%s: est %.1f vs actual %d (off %.2fx)" msg est actual r

let test_uniform_estimates () =
  let t = uniform_table () in
  let ts = Stats.analyze t in
  let eq = R.Predicate.Eq ("k", R.Value.Int 7) in
  check_ratio_below ~limit:2.0 ~est:(Stats.estimate_rows ts eq) ~actual:(actual_rows t eq)
    "uniform equality";
  let btw = R.Predicate.Between ("k", R.Value.Int 5, R.Value.Int 14) in
  check_ratio_below ~limit:2.0
    ~est:(Stats.estimate_rows ts btw)
    ~actual:(actual_rows t btw) "uniform range";
  let nn = R.Predicate.Not_null "note" in
  check_ratio_below ~limit:1.2 ~est:(Stats.estimate_rows ts nn)
    ~actual:(actual_rows t nn) "not-null";
  Stats.invalidate t

let test_zipf_estimates () =
  let t = zipf_table () in
  let ts = Stats.analyze t in
  (* The heavy hitter: 1/ndv would be off ~40x; the histogram's spanned
     buckets must bring it within a factor 2. *)
  let hot = R.Predicate.Eq ("rank", R.Value.Int 0) in
  check_ratio_below ~limit:2.0 ~est:(Stats.estimate_rows ts hot)
    ~actual:(actual_rows t hot) "zipf heavy hitter";
  let head = R.Predicate.Between ("rank", R.Value.Int 0, R.Value.Int 5) in
  check_ratio_below ~limit:2.0 ~est:(Stats.estimate_rows ts head)
    ~actual:(actual_rows t head) "zipf head range";
  Stats.invalidate t

let test_selectivity_combinators () =
  let t = uniform_table ~n:500 () in
  let ts = Stats.analyze t in
  let feq = Alcotest.float 1e-9 in
  Alcotest.check feq "true" 1.0 (Stats.selectivity ts R.Predicate.True);
  let p = R.Predicate.Eq ("u", R.Value.Int 3) in
  let sp = Stats.selectivity ts p in
  Alcotest.check feq "not" (1.0 -. sp) (Stats.selectivity ts (R.Predicate.Not p));
  let q = R.Predicate.Eq ("k", R.Value.Int 3) in
  let sq = Stats.selectivity ts q in
  Alcotest.check feq "and multiplies" (sp *. sq)
    (Stats.selectivity ts (R.Predicate.And [ p; q ]));
  Alcotest.check feq "or combines independently"
    (1.0 -. ((1.0 -. sp) *. (1.0 -. sq)))
    (Stats.selectivity ts (R.Predicate.Or [ p; q ]));
  Alcotest.check feq "custom default" (1.0 /. 3.0)
    (Stats.selectivity ts (R.Predicate.Custom ("any", fun _ _ -> true)));
  Stats.invalidate t

(* --- the acceptance bar: stats beat the heuristic on skew --- *)

let test_stats_beat_heuristic_on_zipf () =
  let t = zipf_table () in
  ignore (Stats.analyze t);
  let queries =
    [
      (* index_eq on the hitter: the heuristic's exact probe is fine here *)
      ("eq rank 0", R.Predicate.Eq ("rank", R.Value.Int 0));
      (* full scan: the heuristic answers with the table cardinality *)
      ("eq shard 3", R.Predicate.Eq ("shard", R.Value.Int 3));
      (* index_eq plus residual: the heuristic ignores the residual *)
      ( "rank 0 and shard 3",
        R.Predicate.And
          [ R.Predicate.Eq ("rank", R.Value.Int 0); R.Predicate.Eq ("shard", R.Value.Int 3) ] );
      (* index_range: exact probe again *)
      ("rank 0..5", R.Predicate.Between ("rank", R.Value.Int 0, R.Value.Int 5));
    ]
  in
  let worst f =
    List.fold_left
      (fun acc (_, p) ->
        let d = f t p in
        let actual = actual_rows t p in
        Float.max acc (ratio ~est:(float_of_int d.R.Query_exec.estimated_rows) ~actual))
      1.0 queries
  in
  let heuristic_worst = worst R.Query_exec.plan_detail_heuristic in
  let stats_worst = worst R.Query_exec.plan_detail in
  (* Sanity on the sources. *)
  List.iter
    (fun (name, p) ->
      let d = R.Query_exec.plan_detail t p in
      if not d.R.Query_exec.est_from_stats then
        Alcotest.failf "%s: estimate did not come from the catalog" name)
    queries;
  if stats_worst >= heuristic_worst then
    Alcotest.failf "stats max error %.2fx must beat heuristic %.2fx" stats_worst
      heuristic_worst;
  (* The heuristic must actually be bad on this workload (scan and
     residual cases are ~16x off) and the catalog must stay tight. *)
  if heuristic_worst < 4.0 then
    Alcotest.failf "workload too easy: heuristic only %.2fx off" heuristic_worst;
  if stats_worst > 4.0 then Alcotest.failf "stats estimator %.2fx off" stats_worst;
  Stats.invalidate t

(* --- freshness and the planner seam --- *)

let test_freshness_and_fallback () =
  with_metrics_enabled @@ fun () ->
  let t = uniform_table ~n:300 () in
  (match Stats.fresh t with
  | None -> ()
  | Some _ -> Alcotest.fail "fresh before any analyze");
  ignore (Stats.analyze t);
  let estimates_before = Metrics.value (Metrics.counter Names.stats_estimates) in
  let p = R.Predicate.Eq ("k", R.Value.Int 1) in
  let d = R.Query_exec.plan_detail t p in
  if not d.R.Query_exec.est_from_stats then Alcotest.fail "fresh stats unused";
  if Metrics.value (Metrics.counter Names.stats_estimates) <= estimates_before then
    Alcotest.fail "stats estimate did not tick the counter";
  (* Any mutation bumps the epoch: the entry goes stale but stays
     inspectable, and the planner falls back to the heuristic. *)
  ignore (R.Table.insert_fields t [ ("k", R.Value.Int 1); ("u", R.Value.Int 1); ("note", R.Value.Null) ]);
  (match Stats.fresh t with
  | None -> ()
  | Some _ -> Alcotest.fail "stale entry claimed fresh");
  (match Stats.lookup t with
  | Some _ -> ()
  | None -> Alcotest.fail "stale entry vanished from lookup");
  let d' = R.Query_exec.plan_detail t p in
  if d'.R.Query_exec.est_from_stats then Alcotest.fail "stale stats used";
  let h = R.Query_exec.plan_detail_heuristic t p in
  Alcotest.check Alcotest.int "fallback equals heuristic" h.R.Query_exec.estimated_rows
    d'.R.Query_exec.estimated_rows;
  ignore (Stats.analyze t);
  (match Stats.fresh t with
  | Some _ -> ()
  | None -> Alcotest.fail "re-analyze did not refresh");
  Stats.invalidate t;
  match Stats.lookup t with
  | None -> ()
  | Some _ -> Alcotest.fail "invalidate left the entry"

let test_sampled_analyze () =
  let t = zipf_table () in
  let ts = Stats.analyze ~sample:500 ~seed:(Test_seed.value + 5) t in
  Alcotest.check Alcotest.int "rows is the full cardinality" 4_000 ts.Stats.ts_rows;
  Alcotest.check Alcotest.int "sampled what was asked" 500 ts.Stats.ts_sampled;
  (* Sampled fractions extrapolate to full-table row counts. *)
  let p = R.Predicate.Eq ("shard", R.Value.Int 3) in
  check_ratio_below ~limit:2.5 ~est:(Stats.estimate_rows ts p) ~actual:(actual_rows t p)
    "sampled uniform equality";
  let hot = R.Predicate.Eq ("rank", R.Value.Int 0) in
  check_ratio_below ~limit:2.5 ~est:(Stats.estimate_rows ts hot)
    ~actual:(actual_rows t hot) "sampled heavy hitter";
  Stats.invalidate t

(* --- the misestimate detector --- *)

let test_misestimate_detector () =
  with_metrics_enabled @@ fun () ->
  let t = zipf_table () in
  ignore (Stats.analyze t);
  (* zip2 copies the Zipf column but has no index, so the estimator
     only has 1/ndv ~ 20 rows — the true hitter count is ~40x that,
     far beyond the 10x default threshold. *)
  let where = R.Predicate.Eq ("zip2", R.Value.Int 0) in
  let mis_before = Metrics.value (Metrics.counter Names.stats_misestimates) in
  let incidents_before = Flight.recorded () in
  let rows, (_, profile) = R.Query_exec.(select_at Profile) ~where t in
  Alcotest.check Alcotest.int "hitter rows returned"
    (actual_rows t where) (List.length rows);
  if Metrics.value (Metrics.counter Names.stats_misestimates) <= mis_before then
    Alcotest.fail "misestimate counter did not tick";
  if Flight.recorded () <= incidents_before then
    Alcotest.fail "no flight-recorder incident";
  (* The profile carries the bad estimate for EXPLAIN ANALYZE. *)
  (match profile.R.Query_exec.est_rows with
  | Some est ->
      if est >= List.length rows then
        Alcotest.failf "expected an underestimate, got %d for %d rows" est
          (List.length rows)
  | None -> Alcotest.fail "profiled run with fresh stats lost est_rows");
  (* A well-estimated query must not trip the detector. *)
  let mis_mid = Metrics.value (Metrics.counter Names.stats_misestimates) in
  ignore (R.Query_exec.(select_at Profile) ~where:(R.Predicate.Eq ("rank", R.Value.Int 0)) t);
  Alcotest.check Alcotest.int "accurate estimate stays quiet" mis_mid
    (Metrics.value (Metrics.counter Names.stats_misestimates));
  Stats.invalidate t

(* The detector fires on a ratio strictly above 10 and on nothing else.
   zip2 has no index, so each of its values gets the same 1/ndv
   estimate while the Zipf counts run from hundreds down to one: the
   ratios cover both sides of the threshold. *)
let test_misestimate_threshold () =
  with_metrics_enabled @@ fun () ->
  let t = zipf_table () in
  let ts = Stats.analyze t in
  let near_below = ref 0 and near_above = ref 0 in
  for v = 0 to 199 do
    let where = R.Predicate.Eq ("zip2", R.Value.Int v) in
    let est = Float.max 1.0 (Stats.estimate_rows ts where) in
    let act = Float.max 1.0 (float_of_int (actual_rows t where)) in
    let ratio = Float.max (act /. est) (est /. act) in
    if ratio > 5.0 && ratio <= 10.0 then incr near_below;
    if ratio > 10.0 && ratio <= 20.0 then incr near_above;
    let before = Metrics.value (Metrics.counter Names.stats_misestimates) in
    ignore (R.Query_exec.(select_at Profile) ~where t);
    let ticked = Metrics.value (Metrics.counter Names.stats_misestimates) > before in
    if ticked <> (ratio > 10.0) then
      Alcotest.failf "zip2 = %d: ratio %.2f, detector %s" v ratio
        (if ticked then "fired" else "stayed quiet")
  done;
  (* Without ratios near the boundary a threshold of 5 or 20 would pass. *)
  if !near_below = 0 || !near_above = 0 then
    Alcotest.failf "no ratio near 10 (%d in (5, 10], %d in (10, 20])" !near_below
      !near_above;
  Stats.invalidate t

(* --- rendering --- *)

let test_json_and_render () =
  let t = uniform_table ~n:100 () in
  let ts = Stats.analyze t in
  let js = Stats.to_json ts in
  let occurs needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1)) in
    go 0
  in
  if not (occurs "\"table\":\"uniformly\"" js) then Alcotest.fail "json lacks table name";
  if not (occurs "\"histogram\"" js) then Alcotest.fail "json lacks histogram";
  if not (occurs "uniformly" (Stats.render ts)) then Alcotest.fail "render lacks title";
  Stats.invalidate t

let suite =
  [
    Alcotest.test_case "histogram invariants on skew" `Quick test_histogram_invariants;
    Alcotest.test_case "ndv and null accounting" `Quick test_ndv_and_null_stats;
    Alcotest.test_case "all-null column" `Quick test_all_null_column;
    Alcotest.test_case "uniform estimates within tolerance" `Quick test_uniform_estimates;
    Alcotest.test_case "zipf estimates within tolerance" `Quick test_zipf_estimates;
    Alcotest.test_case "selectivity combinators" `Quick test_selectivity_combinators;
    Alcotest.test_case "stats beat heuristic on zipf" `Quick
      test_stats_beat_heuristic_on_zipf;
    Alcotest.test_case "freshness, fallback, invalidation" `Quick
      test_freshness_and_fallback;
    Alcotest.test_case "sampled analyze extrapolates" `Quick test_sampled_analyze;
    Alcotest.test_case "misestimate detector" `Quick test_misestimate_detector;
    Alcotest.test_case "misestimate threshold is 10x" `Quick test_misestimate_threshold;
    Alcotest.test_case "json and render" `Quick test_json_and_render;
  ]
