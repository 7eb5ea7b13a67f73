(** The paper's headline queries as incremental materialized views.

    A {!t} bundles a {!Places_db.t} with a {!Relstore.Matview} registry
    holding five views folded from the capture-side event stream:

    - [awesomebar_frecency] — top-N non-hidden places by frecency,
      reproducing the stored [Places_db] frecency bit-for-bit;
    - [host_visits] — visit counts per URL host;
    - [download_referrers] — downloads rolled up by referrer host
      (["(direct)"] when the chain is broken);
    - [recent_visits_7d] — visits inside a sliding 7-day window, with
      ring-buffer expiry;
    - [place_visits] — total and per-place visit counts, registered as
      {!Relstore.Query_exec} matview sources so bare [count] /
      [group_count ~by:"place_id"] over [moz_historyvisits] are served
      incrementally.

    Every view satisfies the differential contract: after any prefix of
    an ingested stream its value equals the matching [cold_*] function
    recomputed from the tables.  A bloom filter ({!Relstore.Remember})
    rides along for O(1) URL revisit detection. *)

type t

val create : ?top_n:int -> ?expected_urls:int -> Places_db.t -> t
(** Registers the five views (empty) and the Query_exec sources.
    [top_n] bounds the frecency view's output (default 10);
    [expected_urls] sizes the revisit bloom filter (default 4096). *)

val ingest : t -> Event.t -> unit
(** Apply the event to the Places tables, fold it into every view,
    update the revisit filter and the freshness stamp. *)

val ingest_batch : t -> Event.t list -> unit

val refresh : t -> unit
(** Rebuild every view by refolding the retained event log — the
    [provctl matview refresh] escape hatch. *)

val places : t -> Places_db.t
val registry : t -> Event.t Relstore.Matview.t
val status : t -> Relstore.Matview.status list

val now : t -> int
(** Watermark: the largest event time ingested. *)

val events_ingested : t -> int

(** {2 View reads (incremental)} *)

val frecency_top : t -> (int * string * float) list
(** [(place_id, url, frecency)], frecency descending, id ascending on
    ties, at most [top_n] rows, hidden places excluded. *)

val host_visits : t -> (string * int) list
(** [(host, visits)], count descending, host ascending on ties. *)

val download_referrers : t -> (string * int) list
(** [(referrer_host, downloads)], same ordering; ["(direct)"] groups
    downloads whose source has no resolvable referrer. *)

val recent_visits : t -> int
(** Visits whose day falls within the last 7 days of the watermark. *)

(** {2 Cold recomputations (differential baselines)} *)

val cold_frecency_top : top_n:int -> Places_db.t -> (int * string * float) list
val cold_host_visits : Places_db.t -> (string * int) list
val cold_download_referrers : Places_db.t -> (string * int) list
val cold_recent_visits : now:int -> Places_db.t -> int
val cold_place_visits : Places_db.t -> int * (Relstore.Value.t * int) list

(** {2 Revisit detection} *)

val revisit_stats : t -> int * int
(** [(first_visits, revisits)] as judged by the bloom filter (a false
    positive misclassifies a first visit as a revisit at the filter's
    configured rate; there are no false negatives). *)
