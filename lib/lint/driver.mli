(** The provlint driver: parse sources with the compiler's own parser,
    run the registered checks, honor [@provlint.allow] suppressions.
    See LINTING.md for the check catalogue. *)

val all_checks : (string * string) list
(** [(check id, one-line description)] for every registered check. *)

val check_ids : string list

val tree_files : root:string -> string list
(** As sorted root-relative paths: every [.ml] file under [root/lib],
    [root/bin], [root/bench], [root/perfbench] and [root/examples], and
    every [.mli] under [root/lib].  Every check lints the [.ml] files of
    [lib/] and [bin/]; [unused-export] also reads the rest. *)

val lint_files : ?checks:string list -> root:string -> string list -> Finding.t list
[@@provlint.allow "unused-export"]
(** Lint the given root-relative files.  The checks lint the [.ml]
    files among them under [lib/] and [bin/] (cross-file checks see
    exactly that set); [unused-export] also reads the [.mli] files and
    the other program directories' [.ml] files among them.
    Test seam: the cross-file fixture tests lint scratch trees through it. *)

val lint_files_timed :
  ?checks:string list -> root:string -> string list -> Finding.t list * (string * float) list
(** [lint_files] plus per-stage wall time in seconds: one ["parse"]
    entry for the (cached) parsing front end, then one entry per
    selected check, in run order.  Backs [provlint --timing] and the
    [lint-full-tree] bench row. *)

val clear_caches : unit -> unit
(** Empties the parse caches and [unused-export]'s index cache, which
    otherwise keep every tree across runs in one process, so the next
    run parses and indexes every file afresh, as one [provlint] run
    does. *)

val lint_tree : ?checks:string list -> root:string -> unit -> Finding.t list
(** [lint_files] over [tree_files]. *)

val lint_tree_timed :
  ?checks:string list -> root:string -> unit -> Finding.t list * (string * float) list

val lint_source : ?checks:string list -> filename:string -> string -> Finding.t list
[@@provlint.allow "unused-export"]
(** Lint one in-memory source.  [filename] drives file classification
    (lib/ vs bin/, codec module, the epoch/WAL dataflow scopes); only
    per-file checks run.  Test seam: the per-file fixture tests lint
    in-memory sources through it. *)

val render_text : Finding.t list -> string

val render_json : Finding.t list -> string
(** A JSON array with one finding object per line — the stable format
    tools/lint_gate.sh diffs against the committed baseline. *)

val render_sarif : Finding.t list -> string
(** A minimal SARIF 2.1.0 log: one run, the check catalogue as rules,
    one result object per line so the gate can diff this format too. *)

val render_timings : (string * float) list -> string
(** Human-readable per-check wall time (ms), for [provlint --timing]. *)
