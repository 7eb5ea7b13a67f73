(* The lint registry: which types, files and names the checks treat as
   provenance-critical.  Kept as data so adding a variant or a codec
   module is a one-line change (see LINTING.md). *)

(* --- provenance-critical variants (no-wildcard-match) --- *)

type variant = {
  type_name : string;  (* how the finding names the type *)
  module_name : string;  (* last path component qualifying its constructors *)
  defining_file : string;  (* basename whose unqualified constructors count *)
  constructors : string list;
}

let critical_variants =
  [
    {
      type_name = "Browser.Event.t";
      module_name = "Event";
      defining_file = "event.ml";
      constructors =
        [
          "Visit"; "Close"; "Tab_opened"; "Tab_closed"; "Bookmark_added"; "Search";
          "Download_started"; "Form_submitted";
        ];
    };
    {
      type_name = "Browser.Transition.t";
      module_name = "Transition";
      defining_file = "transition.ml";
      constructors =
        [
          "Link"; "Typed"; "Bookmark"; "Embed"; "Redirect_permanent"; "Redirect_temporary";
          "Download"; "Framed_link"; "Form_submit"; "Reload";
        ];
    };
    {
      type_name = "Core.Prov_edge.kind";
      module_name = "Prov_edge";
      defining_file = "prov_edge.ml";
      constructors =
        [
          "Link_traversal"; "Typed_traversal"; "Bookmark_traversal"; "Bookmarked_from";
          "Redirect"; "Embed"; "Form_source"; "Form_result"; "Download_source";
          "Download_fetch"; "Search_query"; "Searched_from"; "Instance"; "Tab_spawn";
          "Same_time"; "Reload";
        ];
    };
  ]

(* --- codec modules (codec-symmetry) --- *)

let codec_basenames =
  [ "codec.ml"; "event_codec.ml"; "prov_log.ml"; "telemetry_log.ml"; "frame.ml"; "varint.ml" ]

(* --- sanctioned I/O layers (io-discipline) --- *)

let io_exempt_basenames = [ "faulty_io.ml"; "timing.ml" ]

(* --- paths --- *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let has_suffix ~suffix s =
  String.length s >= String.length suffix
  && String.sub s (String.length s - String.length suffix) (String.length suffix) = suffix

let in_lib rel = has_prefix ~prefix:"lib/" rel
let in_bin rel = has_prefix ~prefix:"bin/" rel
let is_metric_names_file rel = has_suffix ~suffix:"obs/names.ml" rel

(* --- dataflow checks (epoch-discipline / wal-durability /
       matview-purity / shared-state-registry) --- *)

(* Functions that always raise: paths ending in one of these are exempt
   from must-reach obligations (an insert that bails out with a
   constraint violation owes nobody an epoch bump). *)
let raising_names =
  [
    "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    (* Relstore.Errors — kasprintf-wrapped raises *)
    "corrupt"; "constraint_violation"; "arity_mismatch"; "type_mismatch";
  ]

(* Combinators whose function-literal argument runs synchronously, so
   must-reach descends into it: [Obs.Trace.with_span name (fun () ->
   flush ...)] still flushes on the way through. *)
let call_through_names = [ "with_span"; "protect"; "time" ]

(* epoch-discipline: the one file whose mutations must bump the
   modification epoch that validates the query cache / matviews /
   statistics catalog. *)
let epoch_file = "lib/relstore/table.ml"
let epoch_field = "epoch"

(* Hashtbl operations that mutate (state-changing evidence for the
   epoch check and for matview-purity's toplevel-state rule). *)
let mutating_table_ops =
  [
    ("Hashtbl", [ "replace"; "remove"; "add"; "reset"; "clear"; "filter_map_inplace" ]);
    ("Array", [ "set"; "fill"; "blit" ]);
    ("Bytes", [ "set"; "fill"; "blit" ]);
    ("Queue", [ "push"; "add"; "pop"; "take"; "clear" ]);
    ("Ring", [ "push"; "touch"; "clear"; "resize" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Buffer", [ "add_string"; "add_char"; "add_bytes"; "clear"; "reset" ]);
  ]

let is_mutating_op ~module_ ~name =
  match List.assoc_opt module_ mutating_table_ops with
  | Some ops -> List.mem name ops
  | None -> false

(* wal-durability: scope and vocabulary of the segmented WAL. *)
let wal_file = "lib/core/prov_log.ml"
let wal_module = "Segmented"
let wal_sink_modules = [ "Fio"; "Faulty_io" ]
let wal_flush_names = [ "flush" ]
let wal_close_names = [ "close" ]
let wal_write_names = [ "write" ]
let wal_pending_fields = [ "pending_ops"; "pending_bytes" ]
let wal_active_field = "active"

(* matview-purity: modules a view fold may never reach (recovery refolds
   the stream — nondeterminism or fault injection would make the rebuilt
   view diverge from the cold recomputation) and the impure subset of
   the printing API (sprintf/asprintf build strings and stay legal). *)
let matview_banned_modules = [ "Faulty_io"; "Timing"; "Random" ]

let matview_banned_prints =
  [ "printf"; "eprintf"; "fprintf"; "print_endline"; "print_string"; "print_newline";
    "prerr_endline" ]

(* --- metric-name shape (obs-names) --- *)

(* A registered metric name is "prov." followed by at least two more
   dot-separated [a-z_]+ segments — the same shape the old grep-based
   @obs-check enforced, so short literals like "prov.db" never collide. *)
let is_metric_literal s =
  let seg_ok seg = seg <> "" && String.for_all (fun c -> (c >= 'a' && c <= 'z') || c = '_') seg in
  match String.split_on_char '.' s with
  | "prov" :: (_ :: _ :: _ as rest) -> List.for_all seg_ok rest
  | _ -> false

(* Alert rule ids and health check names follow the same dotted-id
   discipline under their own heads ("alert." / "health." plus at least
   two more segments), but their segments may carry digits —
   "alert.query.p99_latency" is a rule id, while short reason literals
   like "alert.fired" (one segment after the head) stay exempt. *)
let is_dotted_id ~head s =
  let seg_ok seg =
    seg <> ""
    && String.for_all
         (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
         seg
  in
  match String.split_on_char '.' s with
  | h :: (_ :: _ :: _ as rest) when h = head -> List.for_all seg_ok rest
  | _ -> false

let is_alert_literal s = is_dotted_id ~head:"alert" s
let is_health_literal s = is_dotted_id ~head:"health" s
