module Obs = Provkit_obs

type order = Asc of string | Desc of string

type plan =
  | Full_scan
  | Index_eq of string
  | Index_range of string

(* The resolved access path: the plan plus everything needed to run it,
   so planning happens exactly once per query. *)
type access =
  | A_scan
  | A_eq of Index.t * Value.t list
  | A_range of Index.t * (Value.t * bool) option * (Value.t * bool) option
      (* bounds carry an inclusivity flag; see Predicate.conjunctive_range *)

(* Run a possibly-exclusive single-column range over the index.  An
   excluded boundary key is skipped by the index walk itself, so it is
   never counted as a scanned candidate — [exec_stats.rows_scanned]
   reflects the strict range, not the widened one. *)
let fold_bound_range idx lo hi ~init ~f =
  let key_of = Option.map (fun (v, _) -> [ v ]) in
  let inclusive = Option.fold ~none:true ~some:snd in
  Index.fold_range ?lo:(key_of lo) ~lo_inclusive:(inclusive lo) ?hi:(key_of hi)
    ~hi_inclusive:(inclusive hi) idx ~init ~f

let eq_index table where =
  let eqs = Predicate.conjunctive_eqs where in
  let lookup col = List.assoc_opt col eqs in
  (* Usable when every indexed column is pinned by an equality. *)
  match
    List.find_opt
      (fun idx -> List.for_all (fun c -> lookup c <> None) (Index.column_names idx))
      (Table.indexes table)
  with
  | Some idx ->
    Some (idx, List.map (fun c -> List.assoc c eqs) (Index.column_names idx))
  | None -> None

let range_index table where =
  match Predicate.conjunctive_range where with
  | None -> None
  | Some (col, lo, hi) -> begin
    match Table.find_index_on table [ col ] with
    | None -> None
    | Some idx -> Some (idx, lo, hi)
  end

let access_for table where =
  match eq_index table where with
  | Some (idx, key) -> A_eq (idx, key)
  | None -> begin
    match range_index table where with
    | Some (idx, lo, hi) -> A_range (idx, lo, hi)
    | None -> A_scan
  end

let plan_of_access = function
  | A_scan -> Full_scan
  | A_eq (idx, _) -> Index_eq (Index.name idx)
  | A_range (idx, _, _) -> Index_range (Index.name idx)

let plan_for table where = plan_of_access (access_for table where)

let plan_name = function
  | Full_scan -> "full_scan"
  | Index_eq _ -> "index_eq"
  | Index_range _ -> "index_range"

type plan_detail = {
  chosen : plan;
  estimated_rows : int;
  table_rows : int;
  est_from_stats : bool;
}

(* The pre-catalog heuristic: rows the access path will pull before
   residual filtering.  For the index paths this probes the index
   (cheap: O(log n + k)) without touching the heap, so it is an exact
   candidate count — but it ignores residual predicates entirely, and
   for a scan it is the whole table however selective the predicate. *)
let plan_detail_heuristic table where =
  let access = access_for table where in
  let estimated_rows =
    match access with
    | A_scan -> Table.row_count table
    | A_eq (idx, key) -> List.length (Index.find idx key)
    | A_range (idx, lo, hi) -> fold_bound_range idx lo hi ~init:0 ~f:(fun acc _ _ -> acc + 1)
  in
  { chosen = plan_of_access access; estimated_rows; table_rows = Table.row_count table;
    est_from_stats = false }

let m_estimates = Obs.Metrics.counter Obs.Names.stats_estimates
let m_misestimates = Obs.Metrics.counter Obs.Names.stats_misestimates

let plan_detail table where =
  match Stats.fresh table with
  | None -> plan_detail_heuristic table where
  | Some ts ->
    let est = Stats.estimate_rows ts where in
    if Obs.Metrics.enabled () then Obs.Metrics.incr m_estimates;
    { chosen = plan_of_access (access_for table where);
      estimated_rows = int_of_float (Float.round est);
      table_rows = Table.row_count table;
      est_from_stats = true }

(* Estimated candidate rows an access path yields, from fresh stats:
   the per-operator numbers EXPLAIN ANALYZE shows next to actuals. *)
let estimate_access ts access ~table_rows =
  match access with
  | A_scan -> float_of_int table_rows
  | A_eq (idx, key) ->
    let n = float_of_int ts.Stats.ts_rows in
    if n <= 0.0 then 0.0
    else
      List.fold_left2
        (fun acc col v -> acc *. (Stats.estimate_eq ts col v /. n))
        n (Index.column_names idx) key
  | A_range (idx, lo, hi) -> begin
    match Index.column_names idx with
    (* The estimator works on plain boundary values: dropping the
       inclusivity flag only shifts the estimate by the boundary key's
       own frequency, well inside histogram resolution. *)
    | col :: _ -> Stats.estimate_range ts col (Option.map fst lo) (Option.map fst hi)
    | [] -> float_of_int table_rows
  end

(* Misestimate detector: when a fresh-stats estimate was served and the
   actual row count disagrees by more than the threshold ratio in
   either direction, tick the counter and leave a flight-recorder
   incident pointing at the table (the cue to re-analyze). *)
let misestimate_threshold = 10.0

let note_estimate ~op table where ~actual =
  if Obs.Metrics.enabled () then
    match Stats.fresh table with
    | None -> ()
    | Some ts ->
      let est = Float.max 1.0 (Stats.estimate_rows ts where) in
      let act = Float.max 1.0 (float_of_int actual) in
      let ratio = Float.max (act /. est) (est /. act) in
      if ratio > misestimate_threshold then begin
        Obs.Metrics.incr m_misestimates;
        Obs.Flight.record "stats.misestimate"
          ~attrs:
            [
              ("op", op);
              ("table", Table.name table);
              ("estimated", Printf.sprintf "%.0f" est);
              ("actual", string_of_int actual);
              ("ratio", Printf.sprintf "%.1f" ratio);
            ]
      end

(* --- instrumentation ------------------------------------------------ *)

type exec_stats = {
  plan : plan;
  rows_scanned : int;
  rows_returned : int;
  elapsed_ns : int;
}

let m_queries = Obs.Metrics.counter Obs.Names.query_count
let m_full_scan = Obs.Metrics.counter Obs.Names.query_full_scan
let m_index_eq = Obs.Metrics.counter Obs.Names.query_index_eq
let m_index_range = Obs.Metrics.counter Obs.Names.query_index_range
let m_rows_scanned = Obs.Metrics.counter Obs.Names.query_rows_scanned
let m_rows_returned = Obs.Metrics.counter Obs.Names.query_rows_returned
let h_latency = Obs.Metrics.histogram Obs.Names.query_latency_ns

(* Every query shape funnels through here: run the thunk (which reports
   the plan it actually used), then record counters, the latency
   histogram, and a trace span.  With the registry off this is the bare
   run plus one branch — no clock reads. *)
let query_span_threshold_ns = ref 100_000

let set_query_span_threshold_ns n = query_span_threshold_ns := n

let executed ~op ~table_name ~detail run =
  if not (Obs.Metrics.enabled ()) then begin
    let result, plan, scanned, returned = run () in
    (result, { plan; rows_scanned = scanned; rows_returned = returned; elapsed_ns = 0 })
  end
  else begin
    let start_ns = Provkit_util.Timing.now_ns () in
    let result, plan, scanned, returned = run () in
    let elapsed = Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) start_ns) in
    Obs.Metrics.incr m_queries;
    Obs.Metrics.incr
      (match plan with
      | Full_scan -> m_full_scan
      | Index_eq _ -> m_index_eq
      | Index_range _ -> m_index_range);
    Obs.Metrics.add m_rows_scanned scanned;
    Obs.Metrics.add m_rows_returned returned;
    Obs.Metrics.observe h_latency elapsed;
    (* Slow-query log: building a span's attribute list costs more than a
       sub-microsecond index probe, so only queries past the threshold
       get one.  Counters and the latency histogram above still see
       every query. *)
    if elapsed >= !query_span_threshold_ns then
      Obs.Trace.record Obs.Names.span_query
        ~attrs:
          [
            ("op", op);
            ("table", table_name);
            ("plan", plan_name plan);
            ("rows_scanned", string_of_int scanned);
            ("rows_returned", string_of_int returned);
          ]
        ~start_ns ~dur_ns:(Int64.of_int elapsed);
    (* The slow-query log has its own (higher) threshold; the predicate
       shape is only rendered for queries that cross it. *)
    if elapsed >= Slowlog.threshold_ns () then
      Slowlog.note ~table:table_name ~op ~plan:(plan_name plan) ~detail:(detail ())
        ~elapsed_ns:elapsed ~rows_scanned:scanned ~rows_returned:returned;
    (result, { plan; rows_scanned = scanned; rows_returned = returned; elapsed_ns = elapsed })
  end

(* --- result cache --------------------------------------------------- *)

(* What a single-table query computes after the fused fold. *)
type shape = Select of order list * int option | Count | Group_count of string

let op_name = function Select _ -> "select" | Count -> "count" | Group_count _ -> "group_count"

(* At level [Off] a single-table query is its own key: (table uid,
   shape, predicate), hashed and compared structurally.  A predicate
   holding a [Custom] closure has no key and always runs cold.  The key
   finds a matview source, else an entry of a process-wide LRU validated
   against the table's modification epoch.  Instrumented levels never
   look: their callers asked to see the execution, so they always run
   it. *)
type key = int * shape * Predicate.t

let m_cache_hits = Obs.Metrics.counter Obs.Names.query_cache_hits
let m_cache_misses = Obs.Metrics.counter Obs.Names.query_cache_misses
let m_cache_evictions = Obs.Metrics.counter Obs.Names.query_cache_evictions
let m_cache_invalidations = Obs.Metrics.counter Obs.Names.query_cache_invalidations

let cache : key Query_cache.t = Query_cache.create ()
let cache_enabled = ref true

let set_cache_enabled b = cache_enabled := b
let set_cache_capacity n = Query_cache.set_capacity cache n
let cache_capacity () = Query_cache.capacity cache
let cache_length () = Query_cache.length cache
let clear_cache () = Query_cache.clear cache

(* Serve a query's payload from the cache, or run [cold] and fill. *)
let with_cache key ~table cold =
  let epoch = Table.epoch table in
  let miss () =
    Obs.Metrics.incr m_cache_misses;
    let payload = cold () in
    Obs.Metrics.add m_cache_evictions (Query_cache.put cache ~key ~epoch payload);
    payload
  in
  match Query_cache.find cache ~key ~epoch with
  | Query_cache.Hit payload ->
    Obs.Metrics.incr m_cache_hits;
    payload
  | Query_cache.Stale ->
    Obs.Metrics.incr m_cache_invalidations;
    miss ()
  | Query_cache.Absent -> miss ()

(* --- matview sources ------------------------------------------------ *)

(* A registered materialized view answers one query — a shape over the
   whole table, predicate [True] — without touching the table or the
   LRU cache, found by key equality.  Freshness is the source's own
   problem: [mv_fresh] typically compares a stamped [Table.epoch]
   against the current one, so a direct table mutation that bypassed
   the view's feed path disqualifies it. *)

let m_matview_serves = Obs.Metrics.counter Obs.Names.matview_serves

type matview_source =
  { mv_key : key; mv_fresh : unit -> bool; mv_payload : unit -> Query_cache.payload }

let matview_sources : matview_source list ref = ref []

let register_matview_source ~table ~shape ~fresh ~payload =
  let key = (Table.uid table, shape, Predicate.True) in
  matview_sources :=
    { mv_key = key; mv_fresh = fresh; mv_payload = payload }
    :: List.filter (fun s -> compare s.mv_key key <> 0) !matview_sources

let clear_matview_sources () = matview_sources := []
let matview_source_count () = List.length !matview_sources

(* --- the pipeline ------------------------------------------------------ *)

type profile = {
  op : string;
  detail : string;
  rows_in : int;
  rows_out : int;
  est_rows : int option;  (* catalog estimate of rows_out, with fresh stats *)
  dur_ns : int;
  children : profile list;
}

type _ level =
  | Off : unit level
  | Stats : exec_stats level
  | Profile : (exec_stats * profile) level

(* Every operation is one pipeline — probe → fetch → filter →
   aggregate/sort → limit — whose first three stages are fused into a
   single fold over the access path.  The level decides only whether
   phase boundaries read the clock and a profile is built (Profile),
   and whether the matview and result-cache funnels may answer (Off).

   The phase clock: untimed, a lap is one branch; timed, it charges the
   time since the previous lap to a slot.  Consecutive laps share a
   timestamp, so the slots tile the run exactly however finely the fused
   fold interleaves them.  Slots: probe, fetch, filter (or aggregate),
   sort, limit; a join uses the first three for its left input, hash
   build and probe. *)
type meter = {
  timed : bool;
  spent : int array;
  mutable mark : int64;
  mutable scanned : int;  (* candidates the access path produced *)
  mutable matched : int;  (* candidates satisfying the predicate *)
}

let ph_probe, ph_fetch, ph_filter, ph_sort, ph_limit = (0, 1, 2, 3, 4)

(* Untimed runs allocate no slots: nothing reads them. *)
let meter ~timed =
  if timed then
    { timed; spent = Array.make 5 0; mark = Provkit_util.Timing.now_ns (); scanned = 0; matched = 0 }
  else { timed; spent = [||]; mark = 0L; scanned = 0; matched = 0 }

let[@inline] lap m slot =
  if m.timed then begin
    let now = Provkit_util.Timing.now_ns () in
    m.spent.(slot) <- m.spent.(slot) + Int64.to_int (Int64.sub now m.mark);
    m.mark <- now
  end

(* Probe → fetch → filter as one fold: [f] sees each candidate row that
   satisfies [where].  An excluded range boundary is skipped inside
   [fold_bound_range], so it never counts as scanned. *)
let fold_matches m table access where ~init ~f =
  let test = Predicate.compile where (Table.schema table) in
  let visit acc rowid row =
    m.scanned <- m.scanned + 1;
    lap m ph_fetch;
    let acc =
      if test row then begin
        m.matched <- m.matched + 1;
        f acc rowid row
      end
      else acc
    in
    lap m ph_filter;
    acc
  in
  let fetch acc rowid =
    lap m ph_probe;
    visit acc rowid (Table.get table rowid)
  in
  let acc =
    match access with
    | A_scan -> Table.fold table ~init ~f:visit
    | A_eq (idx, key) -> List.fold_left fetch init (Index.find idx key)
    | A_range (idx, lo, hi) -> fold_bound_range idx lo hi ~init ~f:(fun acc _ rowid -> fetch acc rowid)
  in
  (* The walk past the last candidate: the heap for a scan, else the index. *)
  lap m (match access with A_scan -> ph_fetch | A_eq _ | A_range _ -> ph_probe);
  acc

let leaf m ?est op detail rows_in rows_out slot =
  { op; detail; rows_in; rows_out; est_rows = est; dur_ns = m.spent.(slot); children = [] }

let root m ?est op detail rows_in rows_out children =
  let dur_ns = Array.fold_left ( + ) 0 m.spent in
  { op; detail; rows_in; rows_out; est_rows = est; dur_ns; children }

let compare_rows schema order_by (ra_id, ra) (rb_id, rb) =
  let rec go = function
    | [] -> Int.compare ra_id rb_id
    | spec :: rest ->
      let col, flip = match spec with Asc c -> (c, 1) | Desc c -> (c, -1) in
      let c = flip * Value.compare (Row.get schema ra col) (Row.get schema rb col) in
      if c <> 0 then c else go rest
  in
  go order_by

(* Candidates in ascending rowid order, from the reversed fold output.
   Every access path yields ascending rowid runs — one for a heap scan
   or an equality probe, one per key for a range — so this merges the
   runs, O(n log runs), instead of sorting. *)
let rowid_order hits =
  let rec split runs run = function
    | [] -> run :: runs
    | ((id, _) as hit) :: rest -> (
      match run with
      | (prev, _) :: _ when id > prev -> split (run :: runs) [ hit ] rest
      | _ -> split runs (hit :: run) rest)
  in
  let by_rowid (a, _) (b, _) = compare (a : int) b in
  let rec pairs = function
    | a :: b :: rest -> List.merge by_rowid a b :: pairs rest
    | runs -> runs
  in
  let rec merge = function [] -> [] | [ run ] -> run | runs -> merge (pairs runs) in
  merge (split [] [] hits)

let by_count_desc (ka, na) (kb, nb) =
  let c = Int.compare nb na in
  if c <> 0 then c else Value.compare ka kb

(* Rendered lazily: only queries that cross the slowlog threshold pay
   for pretty-printing their predicate. *)
let pred_detail where () = Format.asprintf "%a" Predicate.pp where

(* The profile builder of an untimed run: no level asks for it. *)
let untimed () = invalid_arg "Query_exec: an untimed run has no profile"

(* The single-table pipeline inside the metrics funnel: the result as a
   cache payload with its profile builder, and its stats. *)
let run_table shape where table ~timed =
  let op = op_name shape in
  let schema = Table.schema table and table_rows = Table.row_count table in
  executed ~op ~table_name:(Table.name table) ~detail:(pred_detail where) (fun () ->
      let m = meter ~timed in
      let access = access_for table where in
      lap m ph_probe;
      let payload =
        match shape with
        | Select (order_by, limit) ->
          let hits =
            fold_matches m table access where ~init:[] ~f:(fun acc rowid row -> (rowid, row) :: acc)
          in
          let sorted =
            match order_by with
            | [] -> rowid_order hits
            | _ :: _ -> List.sort (compare_rows schema order_by) hits
          in
          lap m ph_sort;
          let final =
            match limit with None -> sorted | Some n -> List.filteri (fun i _ -> i < n) sorted
          in
          lap m ph_limit;
          Query_cache.Rows final
        | Count ->
          fold_matches m table access where ~init:() ~f:(fun () _ _ -> ());
          Query_cache.Count m.matched
        | Group_count by ->
          (* One hash per row: a group's counter is bumped in place. *)
          let pos = Schema.column_index schema by in
          let counts = Hashtbl.create 64 in
          fold_matches m table access where ~init:() ~f:(fun () _ row ->
              let key = row.(pos) in
              match Hashtbl.find_opt counts key with
              | Some n -> incr n
              | None -> Hashtbl.add counts key (ref 1));
          let groups = Hashtbl.fold (fun k n acc -> (k, !n) :: acc) counts [] in
          lap m ph_filter;
          let sorted = List.sort by_count_desc groups in
          lap m ph_sort;
          Query_cache.Groups sorted
      in
      let returned =
        match payload with
        | Query_cache.Rows rows -> List.length rows
        | Query_cache.Count _ -> 1
        | Query_cache.Groups groups -> List.length groups
      in
      let profile =
        if not timed then untimed
        else fun () ->
          note_estimate ~op table where ~actual:m.matched;
          let ts = Stats.fresh table in
          let round f = int_of_float (Float.round f) in
          let est f = Option.map (fun ts -> round (f ts)) ts in
          let filter_est = est (fun ts -> Stats.estimate_rows ts where) in
          let filter = leaf m ?est:filter_est "filter" "residual_predicate" m.scanned m.matched in
          let tail =
            match shape with
            | Select (order_by, limit) ->
              [
                filter ph_filter;
                leaf m "sort"
                  (match order_by with [] -> "rowid_order" | _ :: _ -> "order_by")
                  m.matched m.matched ph_sort;
                leaf m "limit"
                  (match limit with None -> "none" | Some n -> string_of_int n)
                  m.matched returned ph_limit;
              ]
            | Count -> [ filter ph_filter ]
            | Group_count by ->
              (* Groups, not rows: the filter estimate capped by the NDV. *)
              let est =
                match (ts, filter_est) with
                | Some ts, Some e ->
                  Option.map
                    (fun cs -> round (Float.min cs.Stats.cs_ndv (float_of_int e)))
                    (List.assoc_opt by ts.Stats.ts_columns)
                | _ -> None
              in
              [
                leaf m ?est "aggregate" ("group_by(" ^ by ^ ")") m.scanned returned ph_filter;
                leaf m "sort" "count_desc" returned returned ph_sort;
              ]
          in
          root m
            ?est:(match shape with Select _ -> filter_est | Count | Group_count _ -> None)
            op (Table.name table) table_rows returned
            (leaf m
               ?est:(est (fun ts -> estimate_access ts access ~table_rows))
               "probe"
               (match access with
               | A_scan -> "heap_scan"
               | A_eq (idx, _) -> "index_eq(" ^ Index.name idx ^ ")"
               | A_range (idx, _, _) -> "index_range(" ^ Index.name idx ^ ")")
               table_rows m.scanned ph_probe
            :: leaf m "fetch"
                 (match access with A_scan -> "heap_scan" | A_eq _ | A_range _ -> "rowid_fetch")
                 m.scanned m.scanned ph_fetch
            :: tail)
      in
      ((payload, profile), plan_of_access access, m.scanned, returned))

(* The reported plan is the right side's probe path — the decision this
   executor makes (each input select records its own).  Rows scanned
   counts the probed or hashed right rows. *)
let run_join ~input ~where_left ~where_right ~on left right ~timed =
  let left_cols = List.map fst on and right_cols = List.map snd on in
  let lschema = Table.schema left and rschema = Table.schema right in
  executed ~op:"join" ~table_name:(Table.name right)
    ~detail:(fun () -> "on " ^ String.concat "," right_cols)
    (fun () ->
      let m = meter ~timed in
      let left_rows = input where_left left in
      let n_left = List.length left_rows in
      lap m 0;
      let plan, right_matches =
        match Table.find_index_on right right_cols with
        | Some idx ->
          let test = Predicate.compile where_right rschema in
          ( Index_eq (Index.name idx),
            fun key ->
              List.filter_map
                (fun rowid ->
                  m.scanned <- m.scanned + 1;
                  let row = Table.get right rowid in
                  if test row then Some (rowid, row) else None)
                (Index.find idx key) )
        | None ->
          let tbl = Hashtbl.create 256 in
          List.iter
            (fun (rowid, row) ->
              m.scanned <- m.scanned + 1;
              Hashtbl.add tbl (List.map (Row.get rschema row) right_cols) (rowid, row))
            (input where_right right);
          lap m 1;
          (Full_scan, fun key -> List.rev (Hashtbl.find_all tbl key))
      in
      let pairs =
        List.concat_map
          (fun ((_, row) as l) ->
            List.map (fun r -> (l, r)) (right_matches (List.map (Row.get lschema row) left_cols)))
          left_rows
      in
      lap m 2;
      let n_pairs = List.length pairs in
      let profile =
        if not timed then untimed
        else fun () ->
          root m "join"
            (Printf.sprintf "%s x %s" (Table.name left) (Table.name right))
            n_left n_pairs
            (leaf m "left_input" (Table.name left) (Table.row_count left) n_left 0
            ::
            (match plan with
            | Index_eq name -> [ leaf m "probe" ("index_eq(" ^ name ^ ")") n_left n_pairs 2 ]
            | Full_scan | Index_range _ ->
              [
                leaf m "build" "hash_table" m.scanned m.scanned 1;
                leaf m "probe" "hash_probe" n_left n_pairs 2;
              ]))
      in
      ((pairs, profile), plan, m.scanned, n_pairs))

(* --- entry points ------------------------------------------------------ *)

(* A single-table query at a level: at Off a fresh matview source, then
   the result cache, may answer in place of the cold run; the other
   levels always run it, and only Profile reads phase clocks and builds
   the tree. *)
let query : type i. i level -> shape -> Predicate.t -> Table.t -> Query_cache.payload * i =
 fun level shape where table ->
  match level with
  | Off -> begin
    let cold () = fst (fst (run_table shape where table ~timed:false)) in
    match !matview_sources with
    | [] when not !cache_enabled -> (cold (), ())
    | _ when not (Predicate.cacheable where) -> (cold (), ())
    | sources -> begin
      let key = (Table.uid table, shape, where) in
      match List.find_opt (fun s -> compare s.mv_key key = 0) sources with
      | Some s when s.mv_fresh () ->
        Obs.Metrics.incr m_matview_serves;
        (s.mv_payload (), ())
      | Some _ | None -> ((if !cache_enabled then with_cache key ~table cold else cold ()), ())
    end
  end
  | Stats ->
    let (payload, _), stats = run_table shape where table ~timed:false in
    (payload, stats)
  | Profile ->
    let (payload, profile), stats = run_table shape where table ~timed:true in
    (payload, (stats, profile ()))

let select_at level ?(where = Predicate.True) ?(order_by = []) ?limit table =
  match query level (Select (order_by, limit)) where table with
  | Query_cache.Rows rows, inst -> (rows, inst)
  | (Query_cache.Count _ | Query_cache.Groups _), _ -> assert false

let count_at level ?(where = Predicate.True) table =
  match query level Count where table with
  | Query_cache.Count n, inst -> (n, inst)
  | (Query_cache.Rows _ | Query_cache.Groups _), _ -> assert false

let group_count_at level ~by ?(where = Predicate.True) table =
  match query level (Group_count by) where table with
  | Query_cache.Groups groups, inst -> (groups, inst)
  | (Query_cache.Rows _ | Query_cache.Count _), _ -> assert false

let select ?where ?order_by ?limit table = fst (select_at Off ?where ?order_by ?limit table)
let count ?where table = fst (count_at Off ?where table)
let group_count ~by ?where table = fst (group_count_at Off ~by ?where table)

(* A join's inputs follow its caching: served from the cache at Off,
   run cold at Stats and Profile, so an instrumented join never times a
   cache hit as its input. *)
let join_at (type i) (level : i level) ?(where_left = Predicate.True)
    ?(where_right = Predicate.True) ~on left right : _ * i =
  let run = run_join ~where_left ~where_right ~on left right in
  let cold where table = fst (select_at Stats ~where table) in
  match level with
  | Off -> (fst (fst (run ~input:(fun where table -> select ~where table) ~timed:false)), ())
  | Stats -> (match run ~input:cold ~timed:false with (pairs, _), stats -> (pairs, stats))
  | Profile ->
    (match run ~input:cold ~timed:true with (pairs, profile), stats -> (pairs, (stats, profile ())))

let join ?where_left ?where_right ~on left right =
  fst (join_at Off ?where_left ?where_right ~on left right)

(* --- profile rendering ---------------------------------------------- *)

let rec profile_to_json p =
  Printf.sprintf
    "{\"op\":\"%s\",\"detail\":\"%s\",\"rows_in\":%d,\"rows_out\":%d,%s\"dur_ns\":%d,\"children\":[%s]}"
    (Obs.Metrics.json_escape p.op)
    (Obs.Metrics.json_escape p.detail)
    p.rows_in p.rows_out
    (match p.est_rows with None -> "" | Some e -> Printf.sprintf "\"est_rows\":%d," e)
    p.dur_ns
    (String.concat "," (List.map profile_to_json p.children))

let render_profile p =
  let total = max p.dur_ns 1 in
  let buf = Buffer.create 256 in
  let rec go depth n =
    let label = String.make (2 * depth) ' ' ^ n.op ^ " " ^ n.detail in
    let est =
      match n.est_rows with
      | None -> String.make 11 ' '
      | Some e -> Printf.sprintf " (est %4d)" e
    in
    Buffer.add_string buf
      (Printf.sprintf "%-44s rows %6d -> %-6d%s %5.1f%% %10.3f ms\n" label n.rows_in
         n.rows_out est
         (100.0 *. float_of_int n.dur_ns /. float_of_int total)
         (float_of_int n.dur_ns /. 1e6));
    List.iter (go (depth + 1)) n.children
  in
  go 0 p;
  Buffer.contents buf

let fold_profile p =
  let rec go prefix n acc =
    let path = match prefix with "" -> n.op | _ -> prefix ^ ";" ^ n.op in
    let child_ns = List.fold_left (fun a c -> a + c.dur_ns) 0 n.children in
    let acc = (path, max 0 (n.dur_ns - child_ns)) :: acc in
    List.fold_left (fun acc c -> go path c acc) acc n.children
  in
  List.rev (go "" p [])
