(* The §2 answers, pinned.

   A 20-day history (11 dual-topic contexts) answers every input of the
   pools the history benchmark draws from: each search episode's query
   through contextual search and personalized web search, each
   dual-topic episode through time-contextual search, and each download
   through lineage, all under Query_budget.paper_default.  Each answer
   is rendered with its floats as %h, so a change in the last bit of a
   score shows, and compared line by line with data/history_answers.txt,
   which holds one digest (64 bits of its MD5) per input.  Elapsed
   times are not part of an answer.

   Experiment E12's graph-ranked variants of contextual search
   (PageRank and HITS over the focused subgraph, whose float sums follow
   the order the subgraph's edges were added in) answer the same
   queries as E12 calls them, without a budget, pinned the same way in
   data/e12_answers.txt.

   To rewrite a file from the code under test (only when an answer is
   meant to change), run the suite with PROV_WRITE_ANSWERS (or
   PROV_WRITE_E12_ANSWERS) set to the output path. *)

module UM = Browser.User_model
module CS = Core.Contextual_search
module TS = Core.Time_search

let days = 20
let budget = Core.Query_budget.paper_default

let ranked (r : CS.response) =
  String.concat ";"
    (Printf.sprintf "truncated=%b" r.CS.truncated
    :: List.map
         (fun (x : CS.result) ->
           Printf.sprintf "%d %h %h %h" x.CS.page x.CS.score x.CS.text_score x.CS.graph_score)
         r.CS.results)

let personalize index q =
  let e = Core.Personalize.expand ~budget index q in
  String.concat ";"
    (Printf.sprintf "truncated=%b" e.Core.Personalize.truncated
    :: e.Core.Personalize.expanded
    :: List.map (fun (t, w) -> Printf.sprintf "%s %h" t w) e.Core.Personalize.added_terms)

let timectx index time_index (query, context) =
  let r = TS.search ~budget index time_index ~query ~context in
  String.concat ";"
    (Printf.sprintf "truncated=%b" r.TS.truncated
    :: List.map
         (fun (x : TS.result) ->
           Printf.sprintf "%d %h %h %s" x.TS.page x.TS.score x.TS.text_score
             (match x.TS.best_gap with None -> "-" | Some g -> string_of_int g))
         r.TS.results)

let lineage store d =
  match Core.Lineage.first_recognizable ~budget store d with
  | None -> "none"
  | Some o ->
    Printf.sprintf "%d %d [%s] truncated=%b" o.Core.Lineage.node o.Core.Lineage.distance
      (String.concat " " (List.map string_of_int o.Core.Lineage.path))
      o.Core.Lineage.truncated

(* (kind, input, rendered answer) for every pool input, pools in trace
   order. *)
let answers ds =
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let store = Harness.Dataset.store ds in
  let trace = ds.Harness.Dataset.trace in
  let web = ds.Harness.Dataset.web in
  let queries = List.map (fun (e : UM.search_episode) -> e.UM.query) trace.UM.searches in
  let contexts =
    List.map
      (fun (d : UM.dual_episode) ->
        (Webmodel.Topic.name (Webmodel.Web_graph.topic web d.UM.focus_topic), d.UM.other_term))
      trace.UM.duals
  in
  let downloads =
    List.filter_map
      (fun (d : UM.download_episode) -> Core.Prov_store.download_node store d.UM.download_id)
      trace.UM.downloads
  in
  List.map (fun q -> ("contextual", q, ranked (CS.search ~budget index q))) queries
  @ List.map (fun q -> ("personalize", q, personalize index q)) queries
  @ List.map
      (fun (q, c) ->
        ("timectx", q ^ " | " ^ c, timectx index (Harness.Dataset.time_index ds) (q, c)))
      contexts
  @ List.map (fun d -> ("lineage", string_of_int d, lineage store d)) downloads

let line (kind, input, answer) =
  Printf.sprintf "%s\t%s\t%s" kind input (String.sub (Digest.to_hex (Digest.string answer)) 0 16)

let e12_answers ds =
  let index = Core.Api.text_index ds.Harness.Dataset.api in
  let queries =
    List.map (fun (e : UM.search_episode) -> e.UM.query) ds.Harness.Dataset.trace.UM.searches
  in
  List.map (fun q -> ("pagerank", q, ranked (CS.search_pagerank index q))) queries
  @ List.map (fun q -> ("hits", q, ranked (CS.search_hits index q))) queries

let check_golden ~file ~write_env got =
  let golden = Core_fixtures.data_path file in
  (match Sys.getenv_opt write_env with
  | Some path when path <> "" ->
    Out_channel.with_open_bin path (fun oc ->
        List.iter (fun a -> output_string oc (line a ^ "\n")) got)
  | _ -> ());
  let want =
    List.filter (( <> ) "")
      (String.split_on_char '\n' (In_channel.with_open_bin golden In_channel.input_all))
  in
  Alcotest.(check int) "answer count" (List.length want) (List.length got);
  List.iter2
    (fun w ((kind, input, answer) as a) ->
      if line a <> w then
        Alcotest.failf "%s %S: answer differs from %s\nnow: %s" kind input golden answer)
    want got

let test_answers () =
  let ds = Harness.Dataset.with_days days in
  Alcotest.(check bool) "at least 10 dual-topic contexts" true
    (List.length ds.Harness.Dataset.trace.UM.duals >= 10);
  check_golden ~file:"history_answers.txt" ~write_env:"PROV_WRITE_ANSWERS" (answers ds)

let test_e12_answers () =
  check_golden ~file:"e12_answers.txt" ~write_env:"PROV_WRITE_E12_ANSWERS"
    (e12_answers (Harness.Dataset.with_days days))

let suite =
  [
    Alcotest.test_case "every pool input, digest per answer" `Quick test_answers;
    Alcotest.test_case "E12 PageRank and HITS answers" `Quick test_e12_answers;
  ]
