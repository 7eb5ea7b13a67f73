(** The slow-query log: a bounded, fingerprint-deduplicated ring of the
    worst queries the executor has run.

    {!Query_exec} notes every query whose elapsed time reaches the
    threshold.  Notes with the same fingerprint — table, operation,
    chosen plan and predicate shape — merge into one entry that
    accumulates occurrence count and latency totals, so a hot bad query
    costs one slot however often it fires.  The entries live in a keyed
    {!Provkit_util.Ring}, and a repeat note moves its entry to newest, so
    when the ring is full the least recently noted entry is evicted
    (ticking {!Provkit_obs.Names.slowlog_evictions}).

    Entries serialize one-per-line as JSON ({!to_json}/{!of_json}
    round-trip), the format [provctl slowlog --json] emits. *)

type entry = {
  e_fingerprint : int;  (** dedup key: CRC-32 of table/op/plan/detail *)
  e_table : string;
  e_op : string;  (** [select]/[count]/[join]/[group_count] *)
  e_plan : string;  (** {!Query_exec.plan_name} of the chosen path *)
  e_detail : string;  (** rendered predicate shape *)
  mutable e_count : int;  (** occurrences merged into this entry *)
  mutable e_total_ns : int;
  mutable e_max_ns : int;
  mutable e_last_ns : int;  (** latency of the latest occurrence *)
  mutable e_rows_scanned : int;  (** latest occurrence *)
  mutable e_rows_returned : int;
  mutable e_first_ns : int64;  (** monotonic clock at first occurrence *)
  mutable e_last_ns_seen : int64;
}

val threshold_ns : unit -> int
val set_threshold_ns : int -> unit
(** Queries at least this slow are noted.  Default 1 ms; [0] notes
    every query.  Raises [Invalid_argument] when negative or above
    {!max_threshold_ns} (one hour — beyond that the value is almost
    certainly ms or s pasted where ns belong). *)

val max_threshold_ns : int
(** 3_600_000_000_000 (one hour). *)

val threshold_of_env_string : string -> int option
(** Parse a [PROV_SLOWLOG_NS] value: a trimmed decimal int within
    [0, {!max_threshold_ns}], anything else [None].  Applied to the
    environment variable once at module load; exposed pure so tests
    cover the guard without touching the process environment. *)

val note :
  table:string ->
  op:string ->
  plan:string ->
  detail:string ->
  elapsed_ns:int ->
  rows_scanned:int ->
  rows_returned:int ->
  unit
(** Record one slow occurrence (the caller applies the threshold).
    Ticks {!Provkit_obs.Names.slowlog_notes}. *)

val fingerprint : table:string -> op:string -> plan:string -> detail:string -> int
(** The dedup key {!note} computes for these coordinates. *)

val entries : unit -> entry list
(** Current entries, worst first (descending total time). *)

val clear : unit -> unit [@@provlint.allow "unused-export"]
(** Test seam: tests empty the process-global log between cases. *)

(** {2 Serialization} *)

val to_json : entry -> string
(** One flat JSON object on one line. *)

val of_json : string -> entry option
(** Inverse of {!to_json}, read with {!Provkit_obs.Trace.Jsonl_reader};
    [None] on malformed input. *)

val dump_jsonl : Buffer.t -> unit
(** Append every entry (worst first), one JSON object per line. *)

val load_jsonl : string -> entry list
(** Parse a {!dump_jsonl}-formatted string, skipping malformed lines. *)

val render : entry list -> string
(** Aligned table for terminal display. *)
