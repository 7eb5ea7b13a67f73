(* provlint: per-check fixtures (one flagging, one suppressed), the
   obs-names cross-file checks on a scratch tree, grep parity with the
   retired tools/obs_lint.sh, and the integration guarantee that the
   real tree is clean. *)

module Driver = Provkit_lint.Driver
module Finding = Provkit_lint.Finding
module Registry = Provkit_lint.Registry

let lint ?checks ~filename source = Driver.lint_source ?checks ~filename source

let count check findings =
  List.length (List.filter (fun f -> f.Finding.check = check) findings)

let check_count msg check expected findings =
  Alcotest.(check int) msg expected (count check findings)

(* --- codec-symmetry -------------------------------------------------- *)

let codec_flagging () =
  let src =
    {|
let encode_foo buf = Buffer.add_char buf '\001'
let decode_foo s = match s.[0] with '\002' -> 2 | _ -> 0
let write_orphan buf = Buffer.add_char buf '\002'
|}
  in
  let fs = lint ~filename:"lib/relstore/codec.ml" src in
  check_count "skewed tag + missing reader" "codec-symmetry" 2 fs;
  Alcotest.(check bool)
    "mentions the skewed tag" true
    (List.exists
       (fun f -> Provkit_util.Strutil.contains_substring ~needle:"'\\001'" f.Finding.message)
       fs)

let codec_suppressed () =
  let src =
    {|
let encode_foo buf = Buffer.add_char buf '\001' [@@provlint.allow "codec-symmetry"]
let decode_foo s = match s.[0] with '\002' -> 2 | _ -> 0
let write_orphan buf = Buffer.add_char buf '\002' [@@provlint.allow "codec-symmetry"]
|}
  in
  check_count "suppressed" "codec-symmetry" 0 (lint ~filename:"lib/relstore/codec.ml" src)

let codec_only_in_codec_files () =
  let src = {|let encode_foo buf = Buffer.add_char buf '\001'|} in
  check_count "non-codec file exempt" "codec-symmetry" 0 (lint ~filename:"lib/foo.ml" src)

(* --- no-wildcard-match ----------------------------------------------- *)

let match_flagging () =
  let src =
    {|
let f e = match e with Browser.Event.Visit _ -> 1 | _ -> 0
let g t = match t with Browser.Transition.Link -> 1 | _ -> 0
let h k = match k with Prov_edge.Redirect -> 1 | _ -> 0
|}
  in
  check_count "three wildcards over critical variants" "no-wildcard-match" 3
    (lint ~filename:"lib/foo.ml" src)

let match_suppressed () =
  let src =
    {|
let f e = (match e with Browser.Event.Visit _ -> 1 | _ -> 0) [@provlint.allow "no-wildcard-match"]
|}
  in
  check_count "suppressed" "no-wildcard-match" 0 (lint ~filename:"lib/foo.ml" src)

let match_other_variants_free () =
  let src = {|let f o = match o with Some x -> x | _ -> 0|} in
  check_count "non-critical variants exempt" "no-wildcard-match" 0
    (lint ~filename:"lib/foo.ml" src)

(* --- io-discipline --------------------------------------------------- *)

let io_flagging () =
  let src = {|let now () = Unix.gettimeofday ()|} in
  check_count "Unix in lib/" "io-discipline" 1 (lint ~filename:"lib/core/foo.ml" src)

let io_suppressed () =
  let src = {|let now () = Unix.gettimeofday () [@@provlint.allow "io-discipline"]|} in
  check_count "suppressed" "io-discipline" 0 (lint ~filename:"lib/core/foo.ml" src)

let io_sanctioned_layers () =
  let src = {|let now () = Unix.gettimeofday ()|} in
  check_count "bin/ exempt" "io-discipline" 0 (lint ~filename:"bin/tool.ml" src);
  check_count "Timing exempt" "io-discipline" 0 (lint ~filename:"lib/util/timing.ml" src);
  check_count "Faulty_io exempt" "io-discipline" 0
    (lint ~filename:"lib/util/faulty_io.ml" src)

(* --- banned-constructs ----------------------------------------------- *)

let banned_flagging () =
  let src =
    {|
let f x = Obj.magic x
let g h = try h () with _ -> 0
let p () = Printf.printf "hi"
let eq a = a = Value.Null
|}
  in
  check_count "magic + catch-all + printf + poly =" "banned-constructs" 4
    (lint ~filename:"lib/foo.ml" src)

let banned_suppressed () =
  let src =
    {|
let f x = (Obj.magic x [@provlint.allow "banned-constructs"])
let g h = (try h () with _ -> 0) [@provlint.allow "banned-constructs"]
|}
  in
  check_count "suppressed" "banned-constructs" 0 (lint ~filename:"lib/foo.ml" src)

let banned_bin_printf_ok () =
  let src = {|let p () = Printf.printf "hi"|} in
  check_count "printf fine in bin/" "banned-constructs" 0 (lint ~filename:"bin/tool.ml" src)

(* --- obs-names (cross-file, on a scratch tree) ----------------------- *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let ensure_dir path = if not (Sys.file_exists path) then Sys.mkdir path 0o755

(* Scratch trees live under one temp directory, removed at exit — the
   fixtures are build artifacts of the test run, never committed. *)
let scratch_root =
  lazy
    (let root = Filename.temp_file "provlint_fixture" "" in
     Sys.remove root;
     Sys.mkdir root 0o700;
     at_exit (fun () ->
         let rec rm path =
           if Sys.is_directory path then begin
             Array.iter (fun entry -> rm (Filename.concat path entry)) (Sys.readdir path);
             Sys.rmdir path
           end
           else Sys.remove path
         in
         try rm root with Sys_error _ -> ());
     root)

let scratch_tree tag files =
  let root = Filename.concat (Lazy.force scratch_root) ("provlint_fixture_" ^ tag) in
  ensure_dir root;
  List.iter
    (fun (rel, contents) ->
      let rec mkdirs dir =
        if dir <> root && dir <> "." && dir <> "/" then begin
          mkdirs (Filename.dirname dir);
          ensure_dir dir
        end
      in
      let path = Filename.concat root rel in
      mkdirs (Filename.dirname path);
      write_file path contents)
    files;
  root

let names_fixture =
  {|
let used = "prov.fixture.used"
let unused = "prov.fixture.unused"
let span_used = "fixture.span.used"
let span_unused = "fixture.span.unused"
|}

let obs_flagging () =
  let root =
    scratch_tree "obs_flag"
      [
        ("lib/obs/names.ml", names_fixture);
        ( "lib/user.ml",
          {|
let () = ignore Obs.Names.used
let stray = "prov.fixture.stray"
let f body = Obs.Trace.with_span "fixture.span.stray" body
let g () = Obs.Trace.record Obs.Names.span_used 1
|} );
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "obs-names" ] ~root [ "lib/obs/names.ml"; "lib/user.ml" ]
  in
  check_count "stray metric + unused metric + stray span + unused span" "obs-names" 4 fs;
  let has needle =
    List.exists (fun f -> Provkit_util.Strutil.contains_substring ~needle f.Finding.message) fs
  in
  Alcotest.(check bool) "flags the stray literal" true (has "prov.fixture.stray");
  Alcotest.(check bool) "flags the unused registration" true (has "prov.fixture.unused");
  Alcotest.(check bool) "flags the stray span name" true (has "fixture.span.stray");
  Alcotest.(check bool) "flags the unused span" true (has "fixture.span.unused")

let obs_suppressed () =
  let root =
    scratch_tree "obs_ok"
      [
        ("lib/obs/names.ml", names_fixture);
        ( "lib/user.ml",
          {|
let () = ignore Obs.Names.used
let () = ignore Obs.Names.unused
let stray = "prov.fixture.stray" [@@provlint.allow "obs-names"]
let f body = Obs.Trace.with_span "fixture.span.used" body
let g () = Obs.Trace.record Obs.Names.span_unused 1
|} );
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "obs-names" ] ~root [ "lib/obs/names.ml"; "lib/user.ml" ]
  in
  check_count "suppressed + all registered names used" "obs-names" 0 fs

(* bin/ keeps the freedom to improvise span names: CLI phase spans like
   "workload.simulate" are not library API, so only lib/ sites must use
   registered constants. *)
let obs_span_bin_exempt () =
  let root =
    scratch_tree "obs_span_bin"
      [
        ("lib/obs/names.ml", names_fixture);
        ( "lib/user.ml",
          {|
let () = ignore Obs.Names.used
let () = ignore Obs.Names.unused
let f body = Obs.Trace.with_span "fixture.span.used" body
let g () = Obs.Trace.record Obs.Names.span_unused 1
|} );
        ("bin/tool.ml", {|let f body = Obs.Trace.with_span "cli.adhoc.phase" body|});
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "obs-names" ] ~root
      [ "lib/obs/names.ml"; "lib/user.ml"; "bin/tool.ml" ]
  in
  check_count "ad-hoc span literal in bin/ is fine" "obs-names" 0 fs

(* Alert rule ids and health check names ride the same two-way contract
   as metrics: a shaped literal in lib/ or bin/ must be registered in
   names.ml, and a registered constant must be used somewhere.  Reason
   strings with fewer than three dotted segments ("alert.fired") have
   no id shape and stay exempt. *)
let obs_alert_health_flagging () =
  let root =
    scratch_tree "obs_alert_flag"
      [
        ( "lib/obs/names.ml",
          {|
let used = "prov.fixture.used"
let alert_ok = "alert.fixture.ok"
let alert_unused = "alert.fixture.unused"
let health_ok = "health.fixture.ok"
let health_unused = "health.fixture.unused"
|}
        );
        ( "lib/user.ml",
          {|
let () = ignore Obs.Names.used
let () = ignore Obs.Names.alert_ok
let () = ignore Obs.Names.health_ok
let stray_rule = "alert.fixture.stray"
let stray_check = "health.fixture.stray"
let reason = "alert.fired"
|} );
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "obs-names" ] ~root [ "lib/obs/names.ml"; "lib/user.ml" ]
  in
  check_count "stray alert + unused alert + stray health + unused health" "obs-names" 4 fs;
  let has needle =
    List.exists (fun f -> Provkit_util.Strutil.contains_substring ~needle f.Finding.message) fs
  in
  Alcotest.(check bool) "flags the unregistered rule id" true (has "alert.fixture.stray");
  Alcotest.(check bool) "flags the unused rule id" true (has "alert.fixture.unused");
  Alcotest.(check bool) "flags the unregistered check name" true (has "health.fixture.stray");
  Alcotest.(check bool) "flags the unused check name" true (has "health.fixture.unused");
  Alcotest.(check bool) "short reason strings stay exempt" false (has "alert.fired")

let obs_alert_health_clean () =
  let root =
    scratch_tree "obs_alert_ok"
      [
        ( "lib/obs/names.ml",
          {|
let used = "prov.fixture.used"
let alert_ok = "alert.fixture.ok"
let health_ok = "health.fixture.ok"
|}
        );
        (* One id referenced through Names, the other by its literal —
           both count as used; the literal is registered so not stray. *)
        ( "lib/user.ml",
          {|
let () = ignore Obs.Names.used
let () = ignore Obs.Names.alert_ok
let check = "health.fixture.ok"
|} );
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "obs-names" ] ~root [ "lib/obs/names.ml"; "lib/user.ml" ]
  in
  check_count "registered + used alert/health names are clean" "obs-names" 0 fs

(* --- grep parity with the retired tools/obs_lint.sh ------------------ *)

(* The old gate grepped lib/ and bin/ for string literals shaped like
   metric names and required each to be declared in lib/obs/names.ml.
   Reproduce that textual scan here and assert every name it finds
   undeclared is also reported by the AST check — provlint must be a
   superset of the grep before the grep can be deleted. *)

let quoted_literals text =
  let out = ref [] in
  let n = String.length text in
  let i = ref 0 in
  while !i < n do
    if text.[!i] = '"' then begin
      let start = !i + 1 in
      let j = ref start in
      while !j < n && text.[!j] <> '"' do
        if text.[!j] = '\\' then incr j;
        incr j
      done;
      if !j <= n then out := String.sub text start (min !j n - start) :: !out;
      i := !j + 1
    end
    else incr i
  done;
  List.rev !out

let read_whole path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let grep_style_undeclared ~root files =
  let metric_literals rel =
    List.filter Registry.is_metric_literal (quoted_literals (read_whole (Filename.concat root rel)))
  in
  let declared = metric_literals "lib/obs/names.ml" in
  List.concat_map
    (fun rel ->
      if Registry.is_metric_names_file rel then []
      else List.filter (fun s -> not (List.mem s declared)) (metric_literals rel))
    files

let grep_parity () =
  let files =
    [
      ("lib/obs/names.ml", names_fixture);
      ( "lib/user.ml",
        {|
let () = ignore Obs.Names.used
let () = ignore Obs.Names.unused
let a = "prov.fixture.stray"
let b = "prov.fixture.also_stray"
|} );
    ]
  in
  let root = scratch_tree "obs_parity" files in
  let rels = List.map fst files in
  let grep_found = grep_style_undeclared ~root rels in
  Alcotest.(check int) "grep finds both strays" 2 (List.length grep_found);
  let provlint_found = Driver.lint_files ~checks:[ "obs-names" ] ~root rels in
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "provlint also reports %s" name)
        true
        (List.exists
           (fun f -> Provkit_util.Strutil.contains_substring ~needle:name f.Finding.message)
           provlint_found))
    grep_found

(* --- epoch-discipline ------------------------------------------------ *)

let epoch_fixture =
  {|
let bump t = t.epoch <- t.epoch + 1
let good t k v = Hashtbl.replace t.rows k v; bump t
let bad t k = Hashtbl.remove t.rows k
let branchy t k v = if Hashtbl.mem t.rows k then Hashtbl.replace t.rows k v else bump t
let loopy t ks = List.iter (fun k -> Hashtbl.remove t.rows k; bump t) ks
let guarded t k v =
  if k < 0 then invalid_arg "guarded"
  else begin Hashtbl.replace t.rows k v; t.epoch <- t.epoch + 1 end
|}

let epoch_flagging () =
  let fs = lint ~filename:"lib/relstore/table.ml" epoch_fixture in
  (* [bad] never bumps; [branchy]'s then-branch mutates without bumping;
     [loopy]'s bump sits in a may-run-zero-times loop body.  [good]
     bumps through a callee and [guarded]'s raising path is exempt. *)
  check_count "bad + branchy + loopy" "epoch-discipline" 3 fs;
  let flags name =
    List.exists
      (fun f -> Provkit_util.Strutil.contains_substring ~needle:(name ^ " mutates") f.Finding.message)
      fs
  in
  Alcotest.(check bool) "flags bad" true (flags "bad");
  Alcotest.(check bool) "flags branchy" true (flags "branchy");
  Alcotest.(check bool) "flags loopy" true (flags "loopy");
  Alcotest.(check bool) "good (bumps via callee) is clean" false (flags "good");
  Alcotest.(check bool) "guarded (raising path) is clean" false (flags "guarded")

let epoch_suppressed () =
  let src =
    {|
let bump t = t.epoch <- t.epoch + 1
let good t k v = Hashtbl.replace t.rows k v; bump t
let bad t k = Hashtbl.remove t.rows k [@@provlint.allow "epoch-discipline"]
|}
  in
  check_count "suppressed" "epoch-discipline" 0 (lint ~filename:"lib/relstore/table.ml" src)

let epoch_scoped_to_table () =
  check_count "only lib/relstore/table.ml is in scope" "epoch-discipline" 0
    (lint ~filename:"lib/relstore/other.ml" epoch_fixture)

(* --- wal-durability -------------------------------------------------- *)

let wal_fixture =
  {|
module Segmented = struct
  module Fio = Provkit_util.Faulty_io
  let flush_pending h =
    if h.pending_ops > 0 then begin
      Fio.flush h.active;
      h.pending_ops <- 0;
      h.pending_bytes <- 0
    end
  let maybe_commit h = if h.pending_ops > 64 then flush_pending h
  let start_segment h = h.active <- Fio.open_out "seg"
  let good_append h n =
    Fio.write h.active "x";
    h.pending_ops <- h.pending_ops + 1;
    h.pending_bytes <- h.pending_bytes + n;
    maybe_commit h
  let bad_append h n =
    Fio.write h.active "x";
    h.pending_ops <- h.pending_ops + 1;
    h.pending_bytes <- h.pending_bytes + n
  let good_close h = flush_pending h; Fio.close h.active
  let bad_close h = Fio.close h.active
  let good_rotate h =
    flush_pending h;
    Fio.close h.active;
    start_segment h;
    Fio.write h.active "hdr"
  let bad_reuse h =
    flush_pending h;
    Fio.close h.active;
    Fio.write h.active "trailer"
end
let loose h = Fio.close h.active
|}

let wal_flagging () =
  let fs = lint ~filename:"lib/core/prov_log.ml" wal_fixture in
  check_count "bad_append + bad_close + bad_reuse" "wal-durability" 3 fs;
  let flags name needle =
    List.exists
      (fun f ->
        Provkit_util.Strutil.contains_substring ~needle:name f.Finding.message
        && Provkit_util.Strutil.contains_substring ~needle f.Finding.message)
      fs
  in
  Alcotest.(check bool) "bad_append misses a commit point" true
    (flags "bad_append" "commit point");
  Alcotest.(check bool) "bad_close skips the flush" true
    (flags "bad_close" "without flushing");
  Alcotest.(check bool) "bad_reuse writes after close" true
    (flags "bad_reuse" "after closing");
  (* [good_rotate] reopens between close and write; [loose] sits outside
     [Segmented] and shares a name with nothing the rules own. *)
  Alcotest.(check bool) "good_rotate is clean" false (flags "good_rotate" "");
  Alcotest.(check bool) "loose close outside Segmented is out of scope" false
    (flags "loose" "")

let wal_suppressed () =
  let src =
    {|
module Segmented = struct
  module Fio = Provkit_util.Faulty_io
  let bad_append h =
    Fio.write h.active "x";
    h.pending_ops <- h.pending_ops + 1
    [@@provlint.allow "wal-durability"]
  let bad_close h = Fio.close h.active [@@provlint.allow "wal-durability"]
end
|}
  in
  check_count "suppressed" "wal-durability" 0 (lint ~filename:"lib/core/prov_log.ml" src)

let wal_scoped_to_prov_log () =
  check_count "only lib/core/prov_log.ml is in scope" "wal-durability" 0
    (lint ~filename:"lib/core/other.ml" wal_fixture)

(* --- matview-purity (cross-file, on a scratch tree) ------------------- *)

let matview_flagging () =
  let root =
    scratch_tree "matview_flag"
      [
        ( "lib/views.ml",
          {|
let tick = ref 0
let helper ev = Printf.printf "ev %d" ev; ev
let impure =
  { init = 0;
    fold = (fun acc ev -> incr tick; acc + helper ev + Random.int 3);
    finalize = (fun acc -> acc) }
|} );
      ]
  in
  let fs = Driver.lint_files ~checks:[ "matview-purity" ] ~root [ "lib/views.ml" ] in
  check_count "global incr + transitive printf + Random" "matview-purity" 3 fs;
  let has needle =
    List.exists (fun f -> Provkit_util.Strutil.contains_substring ~needle f.Finding.message) fs
  in
  Alcotest.(check bool) "flags the toplevel-ref mutation" true (has "tick");
  Alcotest.(check bool) "flags the print reached through helper" true (has "prints");
  Alcotest.(check bool) "flags Random" true (has "Random.int")

let matview_accumulator_ok () =
  let root =
    scratch_tree "matview_ok"
      [
        ( "lib/views.ml",
          {|
let spec =
  { init = Hashtbl.create 8;
    fold = (fun acc ev -> Hashtbl.replace acc ev true; acc);
    finalize = Hashtbl.length }
|} );
      ]
  in
  check_count "mutating the fold's own accumulator is fine" "matview-purity" 0
    (Driver.lint_files ~checks:[ "matview-purity" ] ~root [ "lib/views.ml" ])

let matview_suppressed () =
  let root =
    scratch_tree "matview_supp"
      [
        ( "lib/views.ml",
          {|
let tick = ref 0
let helper ev = Printf.printf "ev %d" ev; ev [@@provlint.allow "matview-purity"]
let impure =
  { init = 0;
    fold = (fun acc ev -> incr tick; acc + helper ev + Random.int 3);
    finalize = (fun acc -> acc) }
  [@@provlint.allow "matview-purity"]
|} );
      ]
  in
  check_count "suppressed" "matview-purity" 0
    (Driver.lint_files ~checks:[ "matview-purity" ] ~root [ "lib/views.ml" ])

(* --- shared-state-registry (cross-file, on a scratch tree) ------------ *)

let shared_state_src =
  {|
let table = Hashtbl.create 16
let counter = ref 0
type slot = { mutable occupied : bool }
let global_slot = { occupied = false }
module Inner = struct
  let buf = Buffer.create 64
end
let pure = 42
let compute () = let local = ref 0 in incr local; !local
|}

let shared_state_flagging () =
  let root = scratch_tree "ss_flag" [ ("lib/state.ml", shared_state_src) ] in
  let fs = Driver.lint_files ~checks:[ "shared-state-registry" ] ~root [ "lib/state.ml" ] in
  (* [pure] and the function-local ref are not global mutable state. *)
  check_count "table + counter + global_slot + Inner.buf" "shared-state-registry" 4 fs;
  let has needle =
    List.exists (fun f -> Provkit_util.Strutil.contains_substring ~needle f.Finding.message) fs
  in
  Alcotest.(check bool) "flags the Hashtbl" true (has "table");
  Alcotest.(check bool) "flags the ref" true (has "counter");
  Alcotest.(check bool) "flags the mutable-record literal" true (has "global_slot");
  Alcotest.(check bool) "dots nested modules into the name" true (has "Inner.buf")

let shared_state_suppressed () =
  let root =
    scratch_tree "ss_supp"
      [
        ( "lib/state.ml",
          {|
let table = Hashtbl.create 16 [@@provlint.allow "shared-state-registry"]
let counter = ref 0 [@@provlint.allow "shared-state-registry"]
|} );
      ]
  in
  check_count "suppressed" "shared-state-registry" 0
    (Driver.lint_files ~checks:[ "shared-state-registry" ] ~root [ "lib/state.ml" ])

let shared_state_stale_entry () =
  (* A manifest entry whose binding no longer exists must fail once its
     file is part of the linted set — the inventory cannot rot. *)
  let structure =
    match
      Provkit_lint.Source.parse_string ~filename:"lib/state.ml" {|let pure = 42|}
    with
    | Ok s -> s
    | Error _ -> Alcotest.fail "fixture does not parse"
  in
  let manifest =
    [
      Provkit_lint.Shared_state.e "lib/state.ml" "gone"
        Provkit_lint.Shared_state.Needs_lock "used to exist";
      Provkit_lint.Shared_state.e "lib/other.ml" "unlinted"
        Provkit_lint.Shared_state.Needs_lock "file not in this run";
    ]
  in
  let fs =
    Provkit_lint.Check_shared_state.run ~manifest [ ("lib/state.ml", structure) ]
  in
  check_count "only the linted file's dead entry is stale" "shared-state-registry" 1 fs;
  Alcotest.(check bool) "names the dead entry" true
    (List.exists
       (fun f -> Provkit_util.Strutil.contains_substring ~needle:"gone" f.Finding.message)
       fs)

(* --- unused-export (cross-file, on a scratch tree) -------------------- *)

let unused_files = [ "lib/util/widget.mli"; "lib/util/widget.ml"; "test/test_widget.ml" ]

let unused_export_flagging () =
  let root =
    scratch_tree "unused_flag"
      [
        ("lib/util/widget.mli", "val used : int -> int\nval only_tested : int -> int\n");
        ("lib/util/widget.ml", "let used x = x + 1\nlet only_tested x = x * 2\n");
        ("bin/tool.ml", "let () = print_int (Provkit_util.Widget.used 1)\n");
        ("test/test_widget.ml", "let () = assert (Widget.only_tested 2 = 4)\n");
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "unused-export" ] ~root ("bin/tool.ml" :: unused_files)
  in
  check_count "a val used only from test/ is flagged" "unused-export" 1 fs;
  Alcotest.(check bool) "names Widget.only_tested" true
    (List.exists
       (fun f ->
         f.Finding.file = "lib/util/widget.mli"
         && Provkit_util.Strutil.contains_substring ~needle:"Widget.only_tested" f.Finding.message)
       fs)

let unused_export_suppressed () =
  let root =
    scratch_tree "unused_supp"
      [
        ( "lib/util/widget.mli",
          "val only_tested : int -> int [@@provlint.allow \"unused-export\"]\n\
           (** Test seam. *)\n" );
        ("lib/util/widget.ml", "let only_tested x = x * 2\n");
        ("test/test_widget.ml", "let () = assert (Widget.only_tested 2 = 4)\n");
      ]
  in
  check_count "suppressed" "unused-export" 0
    (Driver.lint_files ~checks:[ "unused-export" ] ~root unused_files)

(* A use from bench/, perfbench/ or examples/ counts; so does one inside
   the val's own module (through an alias of a nested module too); a val
   in a nested signature is checked like a toplevel one. *)
let unused_export_scope () =
  let root =
    scratch_tree "unused_scope"
      [
        ( "lib/util/widget.mli",
          {|val by_bench : int
val by_perfbench : int
val by_example : int
val helper : int -> int
val recursive : int -> int
module Inner : sig
  val by_own_alias : int
  val dead : int
end
|} );
        ( "lib/util/widget.ml",
          {|let by_bench = 1
let by_perfbench = 2
let by_example = 3
let helper x = x + 1
let recursive x = if x <= 0 then helper 0 else recursive (x - 1)
module Inner = struct
  let by_own_alias = 4
  let dead = 5
end
module I = Inner
let _ = I.by_own_alias
|} );
        ("bench/main.ml", "let () = print_int Provkit_util.Widget.by_bench\n");
        ( "perfbench/history.ml",
          "module W = Provkit_util.Widget\nlet () = print_int W.by_perfbench\n" );
        ("examples/demo.ml", "open Provkit_util.Widget\nlet () = print_int by_example\n");
      ]
  in
  let fs =
    Driver.lint_files ~checks:[ "unused-export" ] ~root
      [
        "lib/util/widget.mli"; "lib/util/widget.ml"; "bench/main.ml"; "perfbench/history.ml";
        "examples/demo.ml";
      ]
  in
  let flagged =
    List.sort compare
      (List.filter_map
         (fun f ->
           List.find_opt
             (fun name -> Provkit_util.Strutil.contains_substring ~needle:name f.Finding.message)
             [ "Widget.recursive"; "Widget.Inner.dead" ])
         fs)
  in
  check_count "only the self-recursive and the nested dead val" "unused-export" 2 fs;
  Alcotest.(check (list string)) "which ones" [ "Widget.Inner.dead"; "Widget.recursive" ] flagged

(* --- rendering ------------------------------------------------------- *)

let json_rendering () =
  let fs = lint ~filename:"lib/foo.ml" {|let f x = Obj.magic x|} in
  let json = Driver.render_json fs in
  Alcotest.(check bool) "names the check" true
    (Provkit_util.Strutil.contains_substring ~needle:{|"check":"banned-constructs"|} json);
  Alcotest.(check bool) "one object line per finding" true
    (Provkit_util.Strutil.contains_substring ~needle:"{\"check\"" json);
  Alcotest.(check string) "empty list renders as []" "[]" (Driver.render_json [])

let parse_error_reported () =
  let fs = lint ~filename:"lib/foo.ml" "let f = (" in
  check_count "unparseable file is itself a finding" "parse-error" 1 fs

let sarif_rendering () =
  let has needle s = Provkit_util.Strutil.contains_substring ~needle s in
  let fs = lint ~filename:"lib/foo.ml" {|let f x = Obj.magic x|} in
  let sarif = Driver.render_sarif fs in
  Alcotest.(check bool) "declares SARIF 2.1.0" true (has {|"version":"2.1.0"|} sarif);
  Alcotest.(check bool) "result carries the ruleId" true
    (has {|"ruleId":"banned-constructs"|} sarif);
  Alcotest.(check bool) "location is present" true (has {|"startLine":1|} sarif);
  Alcotest.(check bool) "rules catalogue lists every check" true
    (List.for_all (fun (id, _) -> has (Printf.sprintf {|{"id":"%s"|} id) sarif)
       Driver.all_checks);
  Alcotest.(check bool) "empty run renders empty results" true
    (has {|"results":[]|} (Driver.render_sarif []))

let timing_reported () =
  let root =
    scratch_tree "timing" [ ("lib/tiny.ml", {|let id x = x|}) ]
  in
  let _, timings = Driver.lint_files_timed ~root [ "lib/tiny.ml" ] in
  Alcotest.(check string) "parse is timed first" "parse" (fst (List.hd timings));
  List.iter
    (fun id ->
      Alcotest.(check bool) (Printf.sprintf "check %s is timed" id) true
        (List.mem_assoc id timings))
    Driver.check_ids;
  Alcotest.(check int) "one row per check plus parse"
    (1 + List.length Driver.check_ids)
    (List.length timings)

(* --- integration: the real tree is clean ----------------------------- *)

let rec find_repo_root dir depth =
  if depth > 6 then None
  else if Sys.file_exists (Filename.concat dir "lib/obs/names.ml") then Some dir
  else find_repo_root (Filename.dirname dir) (depth + 1)

let repo_clean () =
  match find_repo_root (Sys.getcwd ()) 0 with
  | None -> Alcotest.fail "could not locate the source tree from the test cwd"
  | Some root ->
    let files = Driver.tree_files ~root in
    Alcotest.(check bool) "scans a real tree" true (List.length files > 50);
    Alcotest.(check bool) "sees bin/provctl.ml" true (List.mem "bin/provctl.ml" files);
    let findings = Driver.lint_tree ~root () in
    Alcotest.(check string) "zero findings on the shipped tree" ""
      (Driver.render_text findings)

let suite =
  [
    Alcotest.test_case "codec-symmetry flags" `Quick codec_flagging;
    Alcotest.test_case "codec-symmetry suppressed" `Quick codec_suppressed;
    Alcotest.test_case "codec-symmetry scoped to codecs" `Quick codec_only_in_codec_files;
    Alcotest.test_case "no-wildcard-match flags" `Quick match_flagging;
    Alcotest.test_case "no-wildcard-match suppressed" `Quick match_suppressed;
    Alcotest.test_case "no-wildcard-match scoped" `Quick match_other_variants_free;
    Alcotest.test_case "io-discipline flags" `Quick io_flagging;
    Alcotest.test_case "io-discipline suppressed" `Quick io_suppressed;
    Alcotest.test_case "io-discipline sanctioned layers" `Quick io_sanctioned_layers;
    Alcotest.test_case "banned-constructs flags" `Quick banned_flagging;
    Alcotest.test_case "banned-constructs suppressed" `Quick banned_suppressed;
    Alcotest.test_case "banned-constructs bin printf" `Quick banned_bin_printf_ok;
    Alcotest.test_case "obs-names flags" `Quick obs_flagging;
    Alcotest.test_case "obs-names suppressed" `Quick obs_suppressed;
    Alcotest.test_case "obs-names span bin exempt" `Quick obs_span_bin_exempt;
    Alcotest.test_case "obs-names alert/health flags" `Quick obs_alert_health_flagging;
    Alcotest.test_case "obs-names alert/health clean" `Quick obs_alert_health_clean;
    Alcotest.test_case "obs-names grep parity" `Quick grep_parity;
    Alcotest.test_case "epoch-discipline flags" `Quick epoch_flagging;
    Alcotest.test_case "epoch-discipline suppressed" `Quick epoch_suppressed;
    Alcotest.test_case "epoch-discipline scoped" `Quick epoch_scoped_to_table;
    Alcotest.test_case "wal-durability flags" `Quick wal_flagging;
    Alcotest.test_case "wal-durability suppressed" `Quick wal_suppressed;
    Alcotest.test_case "wal-durability scoped" `Quick wal_scoped_to_prov_log;
    Alcotest.test_case "matview-purity flags" `Quick matview_flagging;
    Alcotest.test_case "matview-purity accumulator ok" `Quick matview_accumulator_ok;
    Alcotest.test_case "matview-purity suppressed" `Quick matview_suppressed;
    Alcotest.test_case "shared-state-registry flags" `Quick shared_state_flagging;
    Alcotest.test_case "shared-state-registry suppressed" `Quick shared_state_suppressed;
    Alcotest.test_case "shared-state-registry stale entry" `Quick shared_state_stale_entry;
    Alcotest.test_case "unused-export flags" `Quick unused_export_flagging;
    Alcotest.test_case "unused-export suppressed" `Quick unused_export_suppressed;
    Alcotest.test_case "unused-export scope" `Quick unused_export_scope;
    Alcotest.test_case "json rendering" `Quick json_rendering;
    Alcotest.test_case "sarif rendering" `Quick sarif_rendering;
    Alcotest.test_case "timing rows" `Quick timing_reported;
    Alcotest.test_case "parse errors surface" `Quick parse_error_reported;
    Alcotest.test_case "repository is clean" `Quick repo_clean;
  ]
