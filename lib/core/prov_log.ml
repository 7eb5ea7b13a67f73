module V = Provkit_util.Varint
module Frame = Provkit_util.Frame
module C = Relstore.Codec
module Obs = Provkit_obs

type op = Prov_store.mutation =
  | Add_node of Prov_node.t
  | Add_edge of { src : int; dst : int; edge : Prov_edge.t }
  | Close_node of { id : int; time : int }

(* --- op codec --- *)

let write_kind buf (kind : Prov_node.kind) =
  V.write_unsigned buf (Prov_node.kind_code kind);
  match kind with
  | Prov_node.Page { url; title } ->
    C.write_string buf url;
    C.write_string buf title
  | Prov_node.Visit { url; title; transition; tab } ->
    C.write_string buf url;
    C.write_string buf title;
    V.write_unsigned buf (Browser.Transition.to_code transition);
    V.write_unsigned buf tab
  | Prov_node.Bookmark { title; url } ->
    C.write_string buf title;
    C.write_string buf url
  | Prov_node.Download { source_url; target_path } ->
    C.write_string buf source_url;
    C.write_string buf target_path
  | Prov_node.Search_term { query } -> C.write_string buf query
  | Prov_node.Form_submission { fields } ->
    V.write_unsigned buf (List.length fields);
    List.iter
      (fun (k, v) ->
        C.write_string buf k;
        C.write_string buf v)
      fields

let read_kind s pos : Prov_node.kind =
  match V.read_unsigned s pos with
  | 0 ->
    let url = C.read_string s pos in
    let title = C.read_string s pos in
    Prov_node.Page { url; title }
  | 1 ->
    let url = C.read_string s pos in
    let title = C.read_string s pos in
    let transition = Browser.Transition.of_code (V.read_unsigned s pos) in
    let tab = V.read_unsigned s pos in
    Prov_node.Visit { url; title; transition; tab }
  | 2 ->
    let title = C.read_string s pos in
    let url = C.read_string s pos in
    Prov_node.Bookmark { title; url }
  | 3 ->
    let source_url = C.read_string s pos in
    let target_path = C.read_string s pos in
    Prov_node.Download { source_url; target_path }
  | 4 -> Prov_node.Search_term { query = C.read_string s pos }
  | 5 ->
    let n = V.read_unsigned s pos in
    let fields =
      List.init n (fun _ ->
          let k = C.read_string s pos in
          let v = C.read_string s pos in
          (k, v))
    in
    Prov_node.Form_submission { fields }
  | k -> Relstore.Errors.corrupt "prov_log: unknown node kind %d" k

let encode_op buf = function
  | Add_node n ->
    Buffer.add_char buf '\000';
    V.write_unsigned buf n.Prov_node.id;
    write_kind buf n.Prov_node.kind;
    C.write_opt_int buf n.Prov_node.time;
    C.write_opt_int buf n.Prov_node.close_time
  | Add_edge { src; dst; edge } ->
    Buffer.add_char buf '\001';
    V.write_unsigned buf src;
    V.write_unsigned buf dst;
    V.write_unsigned buf (Prov_edge.kind_code edge.Prov_edge.kind);
    V.write_signed buf edge.Prov_edge.time
  | Close_node { id; time } ->
    Buffer.add_char buf '\002';
    V.write_unsigned buf id;
    V.write_signed buf time

let decode_op s pos =
  if !pos >= String.length s then Relstore.Errors.corrupt "prov_log: truncated op tag"
  else begin
    let tag = s.[!pos] in
    incr pos;
    match tag with
    | '\000' ->
      let id = V.read_unsigned s pos in
      let kind = read_kind s pos in
      let time = C.read_opt_int s pos in
      let close_time = C.read_opt_int s pos in
      Add_node { Prov_node.id; kind; time; close_time }
    | '\001' ->
      let src = V.read_unsigned s pos in
      let dst = V.read_unsigned s pos in
      let kind = Prov_edge.kind_of_code (V.read_unsigned s pos) in
      let time = V.read_signed s pos in
      Add_edge { src; dst; edge = { Prov_edge.kind; time } }
    | '\002' ->
      let id = V.read_unsigned s pos in
      let time = V.read_signed s pos in
      Close_node { id; time }
    | c -> Relstore.Errors.corrupt "prov_log: unknown op tag %d" (Char.code c)
  end

(* --- journal --- *)

(* Format v1 (legacy): magic followed by bare op encodings.  A bit flip
   mid-file silently garbles every later record; only a truncated tail
   is detectable.  Format v2 frames each record as
   [varint length][CRC-32][payload] so corruption *anywhere* is caught
   and recovery stops at the last verified prefix. *)
let magic_v1 = "PROVLOG1"
let magic_v2 = "PROVLOG2"

let format_version s =
  if String.starts_with ~prefix:magic_v2 s then Some 2
  else if String.starts_with ~prefix:magic_v1 s then Some 1
  else None

type t = { buf : Buffer.t; scratch : Buffer.t; mutable count : int }

let create () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic_v2;
  { buf; scratch = Buffer.create 128; count = 0 }

let op_payload scratch op =
  Buffer.clear scratch;
  encode_op scratch op;
  Buffer.contents scratch

let m_journal_appends = Obs.Metrics.counter Obs.Names.journal_appends

let append t op =
  Frame.write Varint t.buf (op_payload t.scratch op);
  t.count <- t.count + 1;
  Obs.Metrics.incr m_journal_appends

let length t = t.count
let byte_size t = Buffer.length t.buf
let to_bytes t = Buffer.contents t.buf

let read_prefix s =
  match format_version s with
  | Some 1 -> Frame.walk ~magic:magic_v1 decode_op s
  | Some _ -> Frame.walk ~magic:magic_v2 ~frames:Varint decode_op s
  | None -> Relstore.Errors.corrupt "prov_log: bad magic"

let of_bytes s =
  let p = read_prefix s in
  if not p.Frame.clean then
    Obs.Flight.record "journal.load.truncated"
      ~attrs:
        [
          ("ops_salvaged", string_of_int (List.length p.Frame.records));
          ("bytes", string_of_int (String.length s));
        ];
  let t = create () in
  List.iter (append t) p.Frame.records;
  t

(* The in-memory image is written only by [append], so it always reads
   back whole. *)
let ops t = (read_prefix (to_bytes t)).Frame.records

let to_bytes_v1 t =
  let buf = Buffer.create (byte_size t) in
  Buffer.add_string buf magic_v1;
  List.iter (encode_op buf) (ops t);
  Buffer.contents buf

let op_of_mutation (m : Prov_store.mutation) : op = m

let apply_op store op =
  match op with
  | Add_node n -> Prov_store.restore_node store n
  | Add_edge { src; dst; edge } -> Prov_store.restore_edge store ~src ~dst edge
  | Close_node { id; time } -> begin
    match Prov_store.node_opt store id with
    | Some n -> Prov_store.restore_node store { n with Prov_node.close_time = Some time }
    | None -> ()
  end

(* Refolding this stream into matview registries leaves them
   snapshot-consistent with the store — the WAL recovery path hands
   exactly this stream to [Segmented.recover]'s [?views]. *)
let ops_of_store store =
  let ops = ref [] in
  Prov_store.iter_contents store (fun op -> ops := op :: !ops);
  List.rev !ops

let recording_store () =
  let store = Prov_store.create () in
  let journal = create () in
  Prov_store.set_observer store (append journal);
  (store, journal)

let replay t =
  let store = Prov_store.create () in
  List.iter (apply_op store) (ops t);
  store

(* --- segmented write-ahead log --- *)

module Segmented = struct
  module Fio = Provkit_util.Faulty_io

  (* WAL health metrics: every durability-relevant action ticks a
     counter, so `provctl stats` can report appends/fsyncs/rotations/
     compactions and recovery outcomes without bespoke accounting.
     [m_fsyncs] ticks once per fsync(2), at the call: [fsync] below is
     the WAL's only sync site. *)
  let m_appends = Obs.Metrics.counter Obs.Names.wal_appends
  let m_fsyncs = Obs.Metrics.counter Obs.Names.wal_fsyncs
  let m_rotations = Obs.Metrics.counter Obs.Names.wal_rotations
  let m_compactions = Obs.Metrics.counter Obs.Names.wal_compactions
  let m_snapshots = Obs.Metrics.counter Obs.Names.wal_snapshots
  let m_bytes = Obs.Metrics.counter Obs.Names.wal_bytes_written
  let m_recoveries = Obs.Metrics.counter Obs.Names.wal_recoveries
  let m_recovered_ops = Obs.Metrics.counter Obs.Names.wal_recovered_ops
  let m_recovered_segments = Obs.Metrics.counter Obs.Names.wal_recovered_segments
  let m_recoveries_truncated = Obs.Metrics.counter Obs.Names.wal_recoveries_truncated
  let h_batch_ops = Obs.Metrics.histogram Obs.Names.wal_batch_ops
  let h_sync_ns = Obs.Metrics.histogram Obs.Names.wal_sync_ns
  let h_commit_lag_ns = Obs.Metrics.histogram Obs.Names.wal_commit_lag_ns
  let h_batches_per_sync = Obs.Metrics.histogram Obs.Names.wal_batches_per_sync
  let g_fsyncs_per_append = Obs.Metrics.gauge Obs.Names.wal_fsyncs_per_append

  type config = {
    max_segment_bytes : int;
    group_commit_ops : int;
    group_commit_bytes : int;
  }

  (* group_commit_ops = 1 commits every append as it is made. *)
  let default_config =
    { max_segment_bytes = 256 * 1024; group_commit_ops = 1; group_commit_bytes = 64 * 1024 }

  let manifest_magic = "PROVMAN1"
  let snapshot_magic = "PROVSNP1"
  let manifest_file = "MANIFEST"

  type manifest = {
    generation : int;
    snapshot : string option;  (* file holding the compacted base image *)
    segments : string list;  (* live tail segments, oldest first *)
  }

  let encode_manifest m =
    let buf = Buffer.create 128 in
    V.write_unsigned buf m.generation;
    (match m.snapshot with
    | None -> Buffer.add_char buf '\000'
    | Some f ->
      Buffer.add_char buf '\001';
      C.write_string buf f);
    V.write_unsigned buf (List.length m.segments);
    List.iter (C.write_string buf) m.segments;
    Buffer.contents buf

  let decode_manifest s =
    if not (String.starts_with ~prefix:manifest_magic s) then
      Relstore.Errors.corrupt "wal: bad manifest magic";
    let pos = ref (String.length manifest_magic) in
    let payload = Frame.read Varint s pos in
    let p = ref 0 in
    let generation = V.read_unsigned payload p in
    let snapshot =
      if !p >= String.length payload then Relstore.Errors.corrupt "wal: truncated manifest"
      else begin
        let tag = payload.[!p] in
        incr p;
        match tag with
        | '\000' -> None
        | '\001' -> Some (C.read_string payload p)
        | _ -> Relstore.Errors.corrupt "wal: bad manifest snapshot tag"
      end
    in
    let n = C.read_count payload p in
    let segments = List.init n (fun _ -> C.read_string payload p) in
    { generation; snapshot; segments }

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  let ns_since t0 = Int64.to_int (Int64.sub (Provkit_util.Timing.now_ns ()) t0)

  (* The WAL's one fsync site.  The committer thread calls it for
     commits; the owner calls it for segment headers, snapshot and
     manifest files and the directory, and only after [durable], while
     the committer waits for work.  So the counter and the histogram
     have one writer at a time, ordered by the committer's lock. *)
  let fsync sync =
    let t0 = Provkit_util.Timing.now_ns () in
    sync ();
    Obs.Metrics.incr m_fsyncs;
    Obs.Metrics.observe h_sync_ns (ns_since t0)

  let fsync_dir dir = fsync (fun () -> Fio.sync_dir dir)

  (* Write, sync and close a file the WAL writes in one go. *)
  let persist_file path bytes =
    let sink = Fio.to_file path in
    Fio.write sink bytes;
    Fio.flush sink;
    fsync (fun () -> Fio.sync (Fio.syncer sink));
    Fio.close sink

  (* The manifest is tiny and names the live files, so it is replaced
     atomically (write-then-rename): a crash leaves either the old or
     the new manifest, never a torn one.  The new file is synced before
     the rename makes it the manifest, and the directory after it. *)
  let write_manifest ~dir m =
    let buf = Buffer.create 160 in
    Buffer.add_string buf manifest_magic;
    Frame.write Varint buf (encode_manifest m);
    let tmp = Filename.concat dir (manifest_file ^ ".tmp") in
    persist_file tmp (Buffer.contents buf);
    Sys.rename tmp (Filename.concat dir manifest_file);
    fsync_dir dir

  (* What the owner and the committer thread share, under [lock].  The
     owner hands off a commit once its bytes reached write(2); the
     committer takes every commit handed off so far, syncs the active
     segment once for all of them, and publishes [synced]. *)
  type commits = {
    lock : Mutex.t;
    work : Condition.t;  (* a commit was handed off, or [stop] *)
    progress : Condition.t;  (* [synced] advanced, or a sync failed *)
    mutable target : Fio.syncer;  (* the active segment's sync half *)
    mutable handed_off : int;  (* ops whose bytes reached write(2) *)
    mutable waiting : int64 list;  (* handoff times of unsynced commits *)
    mutable synced : int;  (* ops known durable *)
    mutable syncs : int;  (* commit syncs so far *)
    mutable failure : exn option;  (* a failed sync; sticky *)
    mutable stop : bool;
  }

  let rec committer c =
    Mutex.lock c.lock;
    while c.waiting = [] && not c.stop do
      Condition.wait c.work c.lock
    done;
    match c.waiting with
    | [] -> Mutex.unlock c.lock
    | group ->
      let upto = c.handed_off and target = c.target in
      c.waiting <- [];
      Mutex.unlock c.lock;
      (match fsync (fun () -> Fio.sync target) with
      | () ->
        let now = Provkit_util.Timing.now_ns () in
        List.iter
          (fun t -> Obs.Metrics.observe h_commit_lag_ns (Int64.to_int (Int64.sub now t)))
          group;
        Obs.Metrics.observe h_batches_per_sync (List.length group);
        Mutex.protect c.lock (fun () ->
            c.synced <- upto;
            c.syncs <- c.syncs + 1;
            Obs.Metrics.set_gauge g_fsyncs_per_append
              (float_of_int c.syncs /. float_of_int (max 1 upto));
            Condition.broadcast c.progress)
      | exception e ->
        Mutex.protect c.lock (fun () ->
            c.failure <- Some e;
            Condition.broadcast c.progress));
      committer c

  type handle = {
    dir : string;
    config : config;
    mutable manifest : manifest;
    mutable active : Fio.sink;
    mutable active_bytes : int;
    mutable next_index : int;
    mutable appended : int;
    mutable pending_ops : int;  (* appends written to the sink, not yet committed *)
    mutable pending_bytes : int;
    commits : commits;
    mutable thread : Thread.t option;  (* the committer; [None] once closed *)
    scratch : Buffer.t;
  }

  let segment_file i = Printf.sprintf "segment-%06d.log" i
  let snapshot_file gen = Printf.sprintf "snapshot-%06d.db" gen

  (* Only ever called after [durable] (or before any append): no commit
     is in flight, so the committer is idle while the target changes. *)
  let start_segment h =
    let name = segment_file h.next_index in
    h.next_index <- h.next_index + 1;
    let sink = Fio.to_file (Filename.concat h.dir name) in
    Fio.write sink magic_v2;
    Fio.flush sink;
    let target = Fio.syncer sink in
    fsync (fun () -> Fio.sync target);
    (* The segment's directory entry is durable before a manifest names
       it, and so before any commit in it can be reported synced. *)
    fsync_dir h.dir;
    Obs.Metrics.add m_bytes (String.length magic_v2);
    h.active <- sink;
    Mutex.protect h.commits.lock (fun () -> h.commits.target <- target);
    h.active_bytes <- String.length magic_v2;
    h.manifest <- { h.manifest with segments = h.manifest.segments @ [ name ] };
    write_manifest ~dir:h.dir h.manifest

  let read_manifest dir =
    let path = Filename.concat dir manifest_file in
    if Sys.file_exists path then decode_manifest (read_file path)
    else { generation = 0; snapshot = None; segments = [] }

  let next_index_of manifest =
    (* Segment names are zero-padded, so the successor of the last name
       is recoverable by parsing its digits. *)
    List.fold_left
      (fun acc name ->
        match Scanf.sscanf_opt name "segment-%d.log" (fun i -> i) with
        | Some i -> max acc (i + 1)
        | None -> acc)
      0 manifest.segments

  let open_ ?(config = default_config) dir =
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let manifest = read_manifest dir in
    let placeholder = Fio.to_buffer (Buffer.create 1) in
    let commits =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        progress = Condition.create ();
        target = Fio.syncer placeholder;
        handed_off = 0;
        waiting = [];
        synced = 0;
        syncs = 0;
        failure = None;
        stop = false;
      }
    in
    let h =
      {
        dir;
        config;
        manifest;
        active = placeholder;
        active_bytes = 0;
        next_index = next_index_of manifest;
        appended = 0;
        pending_ops = 0;
        pending_bytes = 0;
        commits;
        thread = None;
        scratch = Buffer.create 128;
      }
    in
    (* Never append to a recovered segment: its tail may be torn, and
       bytes after a torn frame are unreachable to recovery.  A fresh
       segment keeps every new record behind a verified prefix. *)
    start_segment h;
    h.thread <- Some (Thread.create committer commits);
    h

  let active_sink h = h.active
  let segments h = h.manifest.segments
  let generation h = h.manifest.generation
  let appended h = h.appended
  let pending h = h.pending_ops
  let synced h = Mutex.protect h.commits.lock (fun () -> h.commits.synced)

  (* The one commit path.  The write half runs here: the bytes appended
     since the last commit go to write(2) once.  The sync half is handed
     to the committer thread, and commits handed off while a sync is in
     flight share the next one.  The batch-size histogram counts ops per
     commit. *)
  let commit h =
    if h.pending_ops > 0 then begin
      let ops = h.pending_ops in
      if ops > 1 then
        Obs.Trace.with_span Obs.Names.span_wal_flush
          ~attrs:[ ("ops", string_of_int ops); ("bytes", string_of_int h.pending_bytes) ]
          (fun () -> Fio.flush h.active)
      else Fio.flush h.active;
      h.pending_ops <- 0;
      h.pending_bytes <- 0;
      Obs.Metrics.observe h_batch_ops ops;
      let c = h.commits and now = Provkit_util.Timing.now_ns () in
      Mutex.protect c.lock (fun () ->
          c.handed_off <- h.appended;
          c.waiting <- now :: c.waiting;
          Condition.signal c.work)
    end

  let durable h =
    commit h;
    let c = h.commits in
    let failure =
      Mutex.protect c.lock (fun () ->
          while c.synced < c.handed_off && Option.is_none c.failure do
            Condition.wait c.progress c.lock
          done;
          c.failure)
    in
    Option.iter raise failure

  let rotate h =
    durable h;
    Fio.close h.active;
    Obs.Metrics.incr m_rotations;
    start_segment h

  let maybe_commit h =
    if
      h.pending_ops >= h.config.group_commit_ops
      || h.pending_bytes >= h.config.group_commit_bytes
    then commit h;
    if h.active_bytes >= h.config.max_segment_bytes then rotate h

  let append h op =
    let frame = Buffer.create 160 in
    Frame.write Varint frame (op_payload h.scratch op);
    Fio.write h.active (Buffer.contents frame);
    h.active_bytes <- h.active_bytes + Buffer.length frame;
    h.appended <- h.appended + 1;
    h.pending_ops <- h.pending_ops + 1;
    h.pending_bytes <- h.pending_bytes + Buffer.length frame;
    Obs.Metrics.incr m_appends;
    Obs.Metrics.add m_bytes (Buffer.length frame);
    Obs.Timeseries.pulse ();
    maybe_commit h

  (* One sink write and (at most) one commit for the whole list: the
     batch ingest path.  A crash mid-batch tears within that single
     write, so recovery keeps a frame-aligned prefix of it. *)
  let append_batch h ops =
    match ops with
    | [] -> ()
    | _ :: _ ->
      let buf = Buffer.create 1024 in
      List.iter (fun op -> Frame.write Varint buf (op_payload h.scratch op)) ops;
      let n = List.length ops in
      Fio.write h.active (Buffer.contents buf);
      h.active_bytes <- h.active_bytes + Buffer.length buf;
      h.appended <- h.appended + n;
      h.pending_ops <- h.pending_ops + n;
      h.pending_bytes <- h.pending_bytes + Buffer.length buf;
      Obs.Metrics.add m_appends n;
      Obs.Metrics.add m_bytes (Buffer.length buf);
      maybe_commit h

  let attach h store = Prov_store.set_observer store (append h)

  let write_snapshot h store =
    let name = snapshot_file (h.manifest.generation + 1) in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf snapshot_magic;
    Frame.write Varint buf (Relstore.Database.to_bytes (Prov_schema.to_database store));
    persist_file (Filename.concat h.dir name) (Buffer.contents buf);
    Obs.Metrics.incr m_snapshots;
    Obs.Metrics.add m_bytes (Buffer.length buf);
    name

  (* Compaction: persist the live store as a checksummed snapshot, then
     truncate the tail — old segments (and the previous snapshot) are
     dropped and appending continues into a fresh, empty segment.  The
     new segment's directory sync also persists the snapshot's entry,
     before the manifest names either. *)
  let compact h store =
    Obs.Trace.with_span Obs.Names.span_wal_compact ~attrs:[ ("dir", h.dir) ] (fun () ->
        let old = h.manifest in
        durable h;
        let snap = write_snapshot h store in
        Fio.close h.active;
        h.manifest <-
          { generation = old.generation + 1; snapshot = Some snap; segments = [] };
        start_segment h;
        let remove name =
          let path = Filename.concat h.dir name in
          if Sys.file_exists path then Sys.remove path
        in
        List.iter remove old.segments;
        Option.iter remove old.snapshot;
        fsync_dir h.dir;
        Obs.Metrics.incr m_compactions)

  let close h =
    durable h;
    Option.iter
      (fun thread ->
        Mutex.protect h.commits.lock (fun () ->
            h.commits.stop <- true;
            Condition.signal h.commits.work);
        Thread.join thread;
        h.thread <- None)
      h.thread;
    Fio.close h.active

  type recovery = {
    store : Prov_store.t;
    ops_applied : int;
    segments_read : int;
    truncated : bool;
  }

  let read_snapshot path =
    let s = read_file path in
    if not (String.starts_with ~prefix:snapshot_magic s) then
      Relstore.Errors.corrupt "wal: bad snapshot magic";
    let pos = ref (String.length snapshot_magic) in
    Prov_schema.of_database (Relstore.Database.of_bytes (Frame.read Varint s pos))

  let recover ?views ~dir () =
    Obs.Trace.with_span Obs.Names.span_wal_recover ~attrs:[ ("dir", dir) ] (fun () ->
    let manifest = read_manifest dir in
    let store =
      match manifest.snapshot with
      | None -> Prov_store.create ()
      | Some f -> read_snapshot (Filename.concat dir f)
    in
    let ops_applied = ref 0 in
    let segments_read = ref 0 in
    let truncated = ref false in
    (* Replay stops at the first unverifiable frame — even in an early
       segment — so the recovered store is always an op-sequence prefix
       of what was logged; nothing after a damaged record is trusted. *)
    (try
       List.iter
         (fun name ->
           let path = Filename.concat dir name in
           if not (Sys.file_exists path) then begin
             truncated := true;
             raise Exit
           end;
           let { Frame.records; clean; _ } =
             (* A segment whose header itself is damaged contributes
                nothing; recovery ends at the previous segment. *)
             try read_prefix (read_file path)
             with Relstore.Errors.Corrupt _ -> { records = []; clean_bytes = 0; clean = false }
           in
           incr segments_read;
           List.iter
             (fun op ->
               apply_op store op;
               incr ops_applied)
             records;
           if not clean then begin
             truncated := true;
             raise Exit
           end)
         manifest.segments
     with Exit -> ());
    Obs.Metrics.incr m_recoveries;
    Obs.Metrics.add m_recovered_ops !ops_applied;
    Obs.Metrics.add m_recovered_segments !segments_read;
    if !truncated then begin
      Obs.Metrics.incr m_recoveries_truncated;
      Obs.Flight.record "wal.recovery.truncated"
        ~attrs:
          [
            ("dir", dir);
            ("ops_applied", string_of_int !ops_applied);
            ("segments_read", string_of_int !segments_read);
          ]
    end;
    (* Views rebuild from the recovered store itself, not the raw
       segment bytes, so they are snapshot-consistent with the tables
       even when replay stopped at a torn frame. *)
    (match views with
    | None -> ()
    | Some registry -> Relstore.Matview.rebuild registry (ops_of_store store));
    { store; ops_applied = !ops_applied; segments_read = !segments_read; truncated = !truncated })

  (* The manifest-sanity health check: the manifest must decode and
     every file it names (snapshot + live segments) must exist.  A
     missing directory or manifest reads as Degraded (nothing durable
     yet, but nothing lost); a manifest that names absent files means
     recovery would truncate — Failing. *)
  let manifest_check ~dir () =
    if not (Sys.file_exists dir) then
      (Obs.Health.Degraded, Printf.sprintf "wal directory %s missing (nothing durable yet)" dir)
    else if not (Sys.file_exists (Filename.concat dir manifest_file)) then
      (Obs.Health.Degraded, "no manifest yet")
    else
      match read_manifest dir with
      | exception Relstore.Errors.Corrupt msg ->
        (Obs.Health.Failing, Printf.sprintf "manifest corrupt: %s" msg)
      | m ->
        let named = (match m.snapshot with None -> [] | Some f -> [ f ]) @ m.segments in
        let missing =
          List.filter (fun f -> not (Sys.file_exists (Filename.concat dir f))) named
        in
        if missing <> [] then
          ( Obs.Health.Failing,
            Printf.sprintf "manifest names missing files: %s" (String.concat ", " missing) )
        else
          ( Obs.Health.Ok,
            Printf.sprintf "generation %d, %d segment(s)%s" m.generation
              (List.length m.segments)
              (match m.snapshot with None -> "" | Some f -> ", snapshot " ^ f) )

  let register_manifest_check ~dir =
    Obs.Health.register Obs.Names.health_wal_manifest (manifest_check ~dir)
end
