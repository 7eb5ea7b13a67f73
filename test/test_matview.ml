(* The matview differential gate: after EVERY prefix of a generated
   event stream, each incremental view must equal its cold
   recomputation over the tables that prefix produced.  Streams come
   from a small command language (visits across all ten transitions,
   redirect chains, typed-URL breaks, downloads, closes, clock skew,
   multi-day jumps) concretized so engine invariants hold — visit and
   download ids contiguous from 1 — which keeps QCheck's list
   shrinking valid on any sub-stream.

   Also here: the bloom filter's no-false-negative and bounded
   false-positive guarantees, torn-WAL recovery refolding the op-stream
   views, sliding-window boundary regressions and the Query_exec
   matview-source fast path. *)

module R = Relstore
module E = Browser.Event
module PDB = Browser.Places_db
module PV = Browser.Places_views
module Transition = Browser.Transition
module Url = Webmodel.Url
module Prng = Provkit_util.Prng
module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented
module SV = Core.Store_views
module F = Provkit_util.Faulty_io

let top_n = 10

(* Matview sources live in a process-global Query_exec registry; keep
   each test's registrations from leaking into the next (the closures
   would also pin dead databases). *)
let with_clean_sources f =
  R.Query_exec.clear_matview_sources ();
  Fun.protect ~finally:R.Query_exec.clear_matview_sources f

let with_metrics_on f =
  let was = Provkit_obs.Metrics.enabled () in
  Provkit_obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Provkit_obs.Metrics.set_enabled was) f

(* ---- the command language ----------------------------------------- *)

(* Commands are abstract; ids and times are assigned at concretization,
   so every sub-list of commands is itself a valid stream (shrinking
   never produces an id gap Places_db would assert on). *)
type cmd =
  | CVisit of { url_ix : int; trans_ix : int; ref_back : int; dt : int }
  | CBookmark of { url_ix : int; dt : int }
  | CDownload of { url_ix : int; ref_back : int; dt : int }
  | CSearch of { dt : int }
  | CClose of { dt : int }
  | CTab of { dt : int }
  | CForm of { dt : int }

(* A deliberately small pool so streams revisit URLs constantly: that
   is what exercises find-or-create, unhiding, frecency resorting and
   the revisit bloom filter. *)
let url_pool =
  Array.init 36 (fun i ->
      Url.make
        ~path:[ Printf.sprintf "p%d" (i mod 6) ]
        (Printf.sprintf "site%d.example" (i / 6)))

let url_at ix = url_pool.(abs ix mod Array.length url_pool)
let transitions = Array.of_list Transition.all

let events_of_cmds cmds =
  let time = ref (20 * 86_400) in
  let nv = ref 0 and nd = ref 0 and nb = ref 0 and ns = ref 0 and nf = ref 0 in
  (* dt < 0 is deliberate clock skew: the stream's times are not
     monotonic, only the watermark is. *)
  let advance dt = time := max 0 (!time + dt) in
  let pick_ref back = if back < 0 || !nv = 0 then None else Some (1 + (back mod !nv)) in
  let visit ?referrer ~transition url_ix =
    incr nv;
    E.Visit
      {
        visit_id = !nv;
        time = !time;
        tab = 1;
        page = None;
        url = url_at url_ix;
        title = "t";
        transition;
        referrer;
        via_bookmark = None;
      }
  in
  List.concat_map
    (fun cmd ->
      match cmd with
      | CVisit { url_ix; trans_ix; ref_back; dt } ->
        advance dt;
        let referrer = pick_ref ref_back in
        [ visit ?referrer ~transition:transitions.(abs trans_ix mod Array.length transitions) url_ix ]
      | CBookmark { url_ix; dt } ->
        if !nv = 0 then []
        else begin
          advance dt;
          incr nb;
          [
            E.Bookmark_added
              { time = !time; bookmark_id = !nb; visit_id = !nv; url = url_at url_ix; title = "b" };
          ]
        end
      | CDownload { url_ix; ref_back; dt } ->
        advance dt;
        let referrer = pick_ref ref_back in
        let v = visit ?referrer ~transition:Transition.Download url_ix in
        incr nd;
        [
          v;
          E.Download_started
            {
              time = !time;
              download_id = !nd;
              visit_id = !nv;
              source_visit = Option.value ~default:!nv referrer;
              url = url_at url_ix;
              target_path = Printf.sprintf "/dl/f%d" !nd;
            };
        ]
      | CSearch { dt } ->
        if !nv = 0 then []
        else begin
          advance dt;
          incr ns;
          [ E.Search { time = !time; search_id = !ns; query = "q"; serp_visit = !nv } ]
        end
      | CClose { dt } ->
        if !nv = 0 then []
        else begin
          advance dt;
          [ E.Close { time = !time; tab = 1; visit_id = !nv } ]
        end
      | CTab { dt } ->
        advance dt;
        [ E.Tab_opened { time = !time; tab = 2; opener_tab = None } ]
      | CForm { dt } ->
        if !nv = 0 then []
        else begin
          advance dt;
          incr nf;
          [
            E.Form_submitted
              { time = !time; form_id = !nf; source_visit = 1; result_visit = !nv; fields = [ ("q", "x") ] };
          ]
        end)
    cmds

let cmd_str = function
  | CVisit { url_ix; trans_ix; ref_back; dt } ->
    Printf.sprintf "V(u%d,t%d,r%d,%+d)" url_ix trans_ix ref_back dt
  | CBookmark { url_ix; dt } -> Printf.sprintf "B(u%d,%+d)" url_ix dt
  | CDownload { url_ix; ref_back; dt } -> Printf.sprintf "D(u%d,r%d,%+d)" url_ix ref_back dt
  | CSearch { dt } -> Printf.sprintf "S(%+d)" dt
  | CClose { dt } -> Printf.sprintf "C(%+d)" dt
  | CTab { dt } -> Printf.sprintf "T(%+d)" dt
  | CForm { dt } -> Printf.sprintf "F(%+d)" dt

(* ---- the per-prefix differential check ----------------------------- *)

let fr_str l =
  "["
  ^ String.concat "; " (List.map (fun (id, url, f) -> Printf.sprintf "(%d,%s,%h)" id url f) l)
  ^ "]"

let hv_str l =
  "[" ^ String.concat "; " (List.map (fun (h, n) -> Printf.sprintf "(%s,%d)" h n) l) ^ "]"

let pv_str (total, groups) =
  Printf.sprintf "%d:[%s]" total
    (String.concat "; "
       (List.map (fun (k, n) -> Printf.sprintf "(%s,%d)" (R.Value.to_string k) n) groups))

exception Diverged of string

let check_view ~ctx name show inc cold =
  if inc <> cold then
    raise
      (Diverged
         (Printf.sprintf "%s: %s diverged\n  incremental: %s\n  cold:        %s" ctx name
            (show inc) (show cold)))

(* One prefix's worth of assertions: all five views against their cold
   baselines (frecency compared exactly — the incremental fold must be
   bit-for-bit the stored float), plus zero staleness. *)
let check_step ~ctx mv places =
  check_view ~ctx "awesomebar_frecency" fr_str (PV.frecency_top mv)
    (PV.cold_frecency_top ~top_n places);
  check_view ~ctx "host_visits" hv_str (PV.host_visits mv) (PV.cold_host_visits places);
  check_view ~ctx "download_referrers" hv_str (PV.download_referrers mv)
    (PV.cold_download_referrers places);
  check_view ~ctx "recent_visits_7d" string_of_int (PV.recent_visits mv)
    (PV.cold_recent_visits ~now:(PV.now mv) places);
  (* The place_visits view is read through the Query_exec source it backs. *)
  let visits = R.Database.table (PDB.database places) "moz_historyvisits" in
  check_view ~ctx "place_visits" pv_str
    (R.Query_exec.count visits, R.Query_exec.group_count ~by:"place_id" visits)
    (PV.cold_place_visits places);
  if R.Matview.max_staleness (PV.registry mv) <> 0 then
    raise (Diverged (ctx ^ ": nonzero staleness right after ingest"))

let run_differential events =
  with_clean_sources @@ fun () ->
  let places = PDB.create () in
  let mv = PV.create ~top_n places in
  let total = List.length events in
  List.iteri
    (fun i ev ->
      PV.ingest mv ev;
      let ctx = Printf.sprintf "after event %d/%d (t=%d)" (i + 1) total (E.time ev) in
      check_step ~ctx mv places)
    events

(* ---- QCheck: random streams, every prefix, with shrinking ---------- *)

let dt_gen =
  QCheck.Gen.frequency
    [
      (6, QCheck.Gen.int_range 0 21_600);
      (2, QCheck.Gen.int_range (-7_200) 0);
      (1, QCheck.Gen.int_range 86_400 600_000);
      (* Multi-day backward jumps: later events land far behind the
         watermark, right around the 7-day window's trailing edge. *)
      (1, QCheck.Gen.int_range (-700_000) (-86_400));
    ]

let cmd_gen =
  let open QCheck.Gen in
  let ref_gen = int_range (-2) 40 in
  frequency
    [
      ( 8,
        map2
          (fun (url_ix, trans_ix) (ref_back, dt) -> CVisit { url_ix; trans_ix; ref_back; dt })
          (pair (int_bound 35) (int_bound 9))
          (pair ref_gen dt_gen) );
      (2, map2 (fun url_ix dt -> CBookmark { url_ix; dt }) (int_bound 35) dt_gen);
      ( 2,
        map2
          (fun (url_ix, ref_back) dt -> CDownload { url_ix; ref_back; dt })
          (pair (int_bound 35) ref_gen)
          dt_gen );
      (1, map (fun dt -> CSearch { dt }) dt_gen);
      (1, map (fun dt -> CClose { dt }) dt_gen);
      (1, map (fun dt -> CTab { dt }) dt_gen);
      (1, map (fun dt -> CForm { dt }) dt_gen);
    ]

let prop_incremental_equals_cold =
  QCheck.Test.make ~name:"random stream: incremental = cold after every prefix" ~count:30
    (QCheck.make
       ~print:(fun cmds -> String.concat ";" (List.map cmd_str cmds))
       ~shrink:QCheck.Shrink.list
       (QCheck.Gen.list_size (QCheck.Gen.int_bound 70) cmd_gen))
    (fun cmds ->
      run_differential (events_of_cmds cmds);
      true)

(* ---- the seeded >= 1k-event gate ----------------------------------- *)

let random_cmd rng =
  let dt =
    match Prng.int rng 10 with
    | 0 | 1 -> -Prng.int rng 7_200
    | 8 -> 86_400 + Prng.int rng 500_000
    | 9 -> -(86_400 + Prng.int rng 500_000)
    | _ -> Prng.int rng 21_600
  in
  match Prng.int rng 16 with
  | 0 | 1 -> CBookmark { url_ix = Prng.int rng 36; dt }
  | 2 | 3 -> CDownload { url_ix = Prng.int rng 36; ref_back = Prng.int rng 42 - 2; dt }
  | 4 -> CSearch { dt }
  | 5 -> CClose { dt }
  | 6 -> CTab { dt }
  | 7 -> CForm { dt }
  | _ -> CVisit { url_ix = Prng.int rng 36; trans_ix = Prng.int rng 10; ref_back = Prng.int rng 42 - 2; dt }

(* The acceptance gate: a deterministic PROV_TEST_SEED stream of at
   least 1000 mixed events, checked after every single prefix.  The
   bloom filter's no-false-negative contract is asserted step by step
   against an exact seen-set, and a final [refresh] must refold to the
   same values (and tick the refresh counters). *)
let test_seeded_stream_every_prefix () =
  let rng = Test_seed.prng ~salt:71 in
  let cmds = List.init 1_024 (fun _ -> random_cmd rng) in
  let events = events_of_cmds cmds in
  Alcotest.(check bool)
    (Printf.sprintf "stream has >= 1000 events (got %d)" (List.length events))
    true
    (List.length events >= 1_000);
  with_clean_sources @@ fun () ->
  let places = PDB.create () in
  let mv = PV.create ~top_n places in
  let seen = Hashtbl.create 1_024 in
  let total_visits = ref 0 in
  List.iteri
    (fun i ev ->
      let revisit_expected =
        match ev with
        | E.Visit v -> Some (Hashtbl.mem seen (Url.to_string v.E.url))
        | _ -> None
      in
      let _, revisits_before = PV.revisit_stats mv in
      PV.ingest mv ev;
      let ctx = Printf.sprintf "after event %d (t=%d)" (i + 1) (E.time ev) in
      (try check_step ~ctx mv places with Diverged msg -> Alcotest.fail msg);
      match (revisit_expected, ev) with
      | Some was_seen, E.Visit v ->
        incr total_visits;
        Hashtbl.replace seen (Url.to_string v.E.url) ();
        let _, revisits_after = PV.revisit_stats mv in
        (* A false positive may flag a first visit as a revisit; a
           revisit silently missed would be a false negative — the one
           thing a bloom filter must never do. *)
        if was_seen && revisits_after <> revisits_before + 1 then
          Alcotest.failf "%s: bloom false negative on %s" ctx (Url.to_string v.E.url)
      | _ -> ())
    events;
  let first, revisits = PV.revisit_stats mv in
  Alcotest.(check int) "every visit was classified exactly once" !total_visits (first + revisits);
  Alcotest.(check int) "registry saw the whole stream" (List.length events)
    (PV.events_ingested mv);
  PV.refresh mv;
  (try check_step ~ctx:"after refresh" mv places with Diverged msg -> Alcotest.fail msg);
  List.iter
    (fun s ->
      Alcotest.(check int)
        (s.R.Matview.st_name ^ ": refresh ticked the counter")
        1 s.R.Matview.st_refreshes;
      Alcotest.(check int)
        (s.R.Matview.st_name ^ ": refolded the full stream")
        (List.length events) s.R.Matview.st_folded)
    (PV.status mv)

(* ---- window boundary regressions ----------------------------------- *)

let mk_visit ~id ~day ?(sec = 0) ?(transition = Transition.Link) ?referrer url_ix =
  E.Visit
    {
      visit_id = id;
      time = (day * 86_400) + sec;
      tab = 1;
      page = None;
      url = url_at url_ix;
      title = "";
      transition;
      referrer;
      via_bookmark = None;
    }

let mk_tick ~day = E.Tab_opened { time = day * 86_400; tab = 9; opener_tab = None }

let fresh_views () =
  let places = PDB.create () in
  (places, PV.create ~top_n places)

let check_recent ~msg mv places expected =
  Alcotest.(check int) msg expected (PV.recent_visits mv);
  Alcotest.(check int) (msg ^ " (cold agrees)")
    (PV.cold_recent_visits ~now:(PV.now mv) places)
    (PV.recent_visits mv)

(* A visit exactly 6 days behind the watermark is the oldest day still
   inside the 7-day window; one more day expires it. *)
let test_window_edge () =
  with_clean_sources @@ fun () ->
  let places, mv = fresh_views () in
  PV.ingest mv (mk_visit ~id:1 ~day:100 0);
  PV.ingest mv (mk_visit ~id:2 ~day:106 1);
  check_recent ~msg:"day 100 at watermark 106 is still in-window" mv places 2;
  PV.ingest mv (mk_tick ~day:107);
  check_recent ~msg:"watermark 107 expires exactly the edge day" mv places 1

(* Out-of-order (clock-skewed) events: a late arrival inside the window
   still counts, one older than the window is dropped, and neither
   moves the watermark backwards. *)
let test_window_clock_skew () =
  with_clean_sources @@ fun () ->
  let places, mv = fresh_views () in
  PV.ingest mv (mk_visit ~id:1 ~day:120 0);
  PV.ingest mv (mk_visit ~id:2 ~day:116 1);
  check_recent ~msg:"late in-window arrival counts" mv places 2;
  PV.ingest mv (mk_visit ~id:3 ~day:114 2);
  check_recent ~msg:"late arrival on the exact trailing edge counts" mv places 3;
  PV.ingest mv (mk_visit ~id:4 ~day:113 3);
  check_recent ~msg:"arrival older than the window is dropped" mv places 3;
  Alcotest.(check int) "skew never lowers the watermark" (120 * 86_400) (PV.now mv)

(* A gap longer than the window empties it wholesale (the ring buffer
   must clear every slot, not just the entered one), then refills. *)
let test_window_empty_expiry () =
  with_clean_sources @@ fun () ->
  let places, mv = fresh_views () in
  PV.ingest mv (mk_visit ~id:1 ~day:1 0);
  PV.ingest mv (mk_visit ~id:2 ~day:2 1);
  check_recent ~msg:"both visits inside the initial window" mv places 2;
  PV.ingest mv (mk_tick ~day:40);
  check_recent ~msg:"a multi-week gap empties the window" mv places 0;
  PV.ingest mv (mk_visit ~id:3 ~day:40 2);
  check_recent ~msg:"the window refills after the gap" mv places 1

(* ---- bloom filter guarantees ---------------------------------------- *)

let test_bloom_no_false_negatives () =
  List.iter
    (fun salt ->
      let rng = Test_seed.prng ~salt in
      let b = R.Remember.create ~expected:2_000 () in
      let keys = List.init 2_000 (fun i -> Printf.sprintf "k%d-%d-%d" salt i (Prng.int rng 1_000_000)) in
      List.iter (R.Remember.add b) keys;
      List.iter
        (fun k ->
          if not (R.Remember.mem b k) then Alcotest.failf "false negative for %S (salt %d)" k salt)
        keys)
    [ 31; 32; 33 ]

(* The measured false-positive rate on 20k never-inserted keys must stay
   within 2x the configured target (expected ~1x; 2x leaves ~14 sigma of
   sampling headroom at this query count). *)
let test_bloom_fp_rate_bounded () =
  List.iter
    (fun salt ->
      let rng = Test_seed.prng ~salt in
      let b = R.Remember.create ~false_positive_rate:0.01 ~expected:4_096 () in
      for _ = 1 to 4_096 do
        R.Remember.add b (Printf.sprintf "in-%d-%d" salt (Prng.int rng 1_000_000_000))
      done;
      let queries = 20_000 in
      let hits = ref 0 in
      for i = 1 to queries do
        if R.Remember.mem b (Printf.sprintf "out-%d-%d" salt i) then incr hits
      done;
      let rate = float_of_int !hits /. float_of_int queries in
      let target = R.Remember.false_positive_rate b in
      if rate > 2.0 *. target then
        Alcotest.failf "salt %d: measured FP rate %.4f exceeds 2x target %.4f" salt rate target)
    [ 41; 42; 43 ]

let test_bloom_remember () =
  let b = R.Remember.create ~expected:16 () in
  Alcotest.(check bool) "a fresh key is not remembered" false (R.Remember.remember b "u1");
  Alcotest.(check bool) "the second sighting is" true (R.Remember.remember b "u1")

(* ---- the Query_exec fast path --------------------------------------- *)

let test_query_fastpath () =
  with_clean_sources @@ fun () ->
  with_metrics_on @@ fun () ->
  let places = PDB.create () in
  let mv = PV.create ~top_n places in
  let evs =
    events_of_cmds
      (List.init 40 (fun i -> CVisit { url_ix = i; trans_ix = 0; ref_back = -1; dt = 60 }))
  in
  PV.ingest_batch mv evs;
  let visits = R.Database.table (PDB.database places) "moz_historyvisits" in
  let serves () = Provkit_obs.Metrics.counter_value Provkit_obs.Names.matview_serves in
  let s0 = serves () in
  Alcotest.(check int) "count served from the view" 40 (R.Query_exec.count visits);
  Alcotest.(check bool) "group_count served from the view" true
    (R.Query_exec.group_count ~by:"place_id" visits = snd (PV.cold_place_visits places));
  Alcotest.(check int) "both reads hit the matview source" 2 (serves () - s0);
  (* A shaped query (non-trivial predicate) must bypass the source. *)
  let all_rows = R.Query_exec.count ~where:R.Predicate.True visits in
  Alcotest.(check int) "trivial predicate still matches the source" 40 all_rows;
  let s_keyed = serves () in
  let filtered = R.Predicate.Cmp (R.Predicate.Ge, "place_id", R.Value.Int 0) in
  Alcotest.(check int) "a filtered count is answered cold" 40
    (R.Query_exec.count ~where:filtered visits);
  Alcotest.(check bool) "another grouping column is answered cold" true
    (R.Query_exec.group_count ~by:"visit_type" visits <> snd (PV.cold_place_visits places));
  Alcotest.(check int) "neither read matched a source key" 0 (serves () - s_keyed);
  (* Mutate the table behind the view's back: the stamped epoch no
     longer matches, so reads must fall back to the cold path. *)
  PDB.apply_event places (mk_visit ~id:41 ~day:30 0);
  let s1 = serves () in
  Alcotest.(check int) "stale source falls back to a cold count" 41 (R.Query_exec.count visits);
  Alcotest.(check int) "the stale read did not serve" 0 (serves () - s1)

(* ---- crash recovery rebuilds the op-stream views --------------------- *)

let test_recovery_rebuilds_views () =
  Test_wal.with_temp_dir (fun dir ->
      with_metrics_on (fun () ->
          (* A huge group-commit trigger keeps the post-barrier tail
             buffered until close, so the armed tear hits exactly one
             flush: the durable prefix survives, the tail is torn. *)
          let config =
            {
              Seg.max_segment_bytes = 1 lsl 20;
              Seg.group_commit_ops = 1_024;
              Seg.group_commit_bytes = 1 lsl 20;
            }
          in
          let h = Seg.open_ ~config dir in
          let store = Core.Prov_store.create () in
          Seg.attach h store;
          let rng = Test_seed.prng ~salt:67 in
          Test_wal.drive store rng 60;
          Seg.durable h;
          Test_wal.drive store rng 30;
          Alcotest.(check bool) "the tail is pending at the crash point" true (Seg.pending h > 0);
          F.arm (Seg.active_sink h) [ F.Torn_final_write 3 ];
          Seg.close h;
          let incidents_before = Provkit_obs.Flight.recorded () in
          let registry, nodes, edges = SV.standard () in
          let r = Seg.recover ~views:registry ~dir () in
          Alcotest.(check bool) "the torn tail truncates recovery" true r.Seg.truncated;
          Alcotest.(check bool) "a strict prefix of the log survives" true
            (r.Seg.ops_applied < Seg.appended h);
          Alcotest.(check int) "exactly one flight incident for the torn tail" 1
            (Provkit_obs.Flight.recorded () - incidents_before);
          let folded = List.map (fun st -> st.R.Matview.st_folded) (R.Matview.status registry) in
          let ops = List.length (PL.ops_of_store r.Seg.store) in
          Alcotest.(check (list int)) "views were refolded from the recovered image"
            (List.map (fun _ -> ops) folded) folded;
          Alcotest.(check int) "no view lags the registry" 0 (R.Matview.max_staleness registry);
          Alcotest.(check bool) "node kinds equal the cold relational group-count" true
            (R.Matview.value nodes = SV.cold_node_kinds r.Seg.store);
          Alcotest.(check bool) "edge kinds equal the cold relational group-count" true
            (R.Matview.value edges = SV.cold_edge_kinds r.Seg.store)))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_incremental_equals_cold;
    ("seeded >=1k-event stream: every prefix differential", `Quick, test_seeded_stream_every_prefix);
    ("window: edge-day inclusion and expiry", `Quick, test_window_edge);
    ("window: clock-skewed arrivals", `Quick, test_window_clock_skew);
    ("window: multi-week gap empties the ring", `Quick, test_window_empty_expiry);
    ("bloom: no false negatives across seeds", `Quick, test_bloom_no_false_negatives);
    ("bloom: FP rate bounded at 2x target", `Quick, test_bloom_fp_rate_bounded);
    ("bloom: remember = mem then add", `Quick, test_bloom_remember);
    ("query_exec: matview source serves and goes stale", `Quick, test_query_fastpath);
    ("wal: torn-tail recovery refolds the views", `Quick, test_recovery_rebuilds_views);
  ]
