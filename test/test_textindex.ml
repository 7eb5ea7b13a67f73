(* Tokenizer, stemmer, inverted index, scorers and the search facade. *)

module T = Textindex

let check_sl = Alcotest.(check (list string))

(* --- tokenizer --- *)

let test_tokenize () =
  check_sl "lowercase words" [ "hello"; "world" ] (T.Tokenizer.tokenize "Hello, World!");
  check_sl "digits kept" [ "a1"; "b2" ] (T.Tokenizer.tokenize "a1 b2");
  check_sl "empty" [] (T.Tokenizer.tokenize "  ...  ")

let test_tokenize_url () =
  check_sl "url split"
    [ "http"; "wine"; "example"; "cellar"; "list" ]
    (T.Tokenizer.tokenize_url "http://wine.example/cellar-list")

let test_terms_pipeline () =
  (* stopwords and single chars dropped, stems applied *)
  check_sl "stopwords out" [ "garden" ] (T.Tokenizer.terms "the gardening of a");
  check_sl "unstemmed" [ "gardening" ] (T.Tokenizer.terms ~stem:false "the gardening");
  check_sl "web chrome dropped" [] (T.Tokenizer.terms "www example com index html")

let test_stemmer () =
  let check_stem a b = Alcotest.(check string) a b (T.Stemmer.stem a) in
  check_stem "gardening" "garden";
  check_stem "gardens" "garden";
  check_stem "garden" "garden";
  check_stem "flies" "flie";
  check_stem "agreed" "agree";
  Alcotest.(check string) "short tokens untouched" "bed" (T.Stemmer.stem "bed");
  Alcotest.(check string) "no vowel guard" "dvds" (T.Stemmer.stem "dvds")

let test_stemmer_idempotent_on_common_words () =
  List.iter
    (fun w ->
      let once = T.Stemmer.stem w in
      Alcotest.(check string) ("idempotent: " ^ w) once (T.Stemmer.stem once))
    [ "gardening"; "running"; "searches"; "visited"; "pages"; "rosebud"; "tickets" ]

let test_stopwords () =
  Alcotest.(check bool) "the" true (T.Stopwords.is_stopword "the");
  Alcotest.(check bool) "www" true (T.Stopwords.is_stopword "www");
  Alcotest.(check bool) "wine" false (T.Stopwords.is_stopword "wine")

(* --- inverted index --- *)

let test_inverted_index_basics () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "wine"; "red"; "wine" ];
  T.Inverted_index.add_document idx 2 [ "wine"; "white" ];
  Alcotest.(check int) "docs" 2 (T.Inverted_index.document_count idx);
  Alcotest.(check int) "tf" 2 (T.Inverted_index.term_frequency idx ~term:"wine" ~doc:1);
  Alcotest.(check int) "df" 2 (T.Inverted_index.document_frequency idx "wine");
  Alcotest.(check int) "df rare" 1 (T.Inverted_index.document_frequency idx "red");
  Alcotest.(check int) "df absent" 0 (T.Inverted_index.document_frequency idx "beer");
  Alcotest.(check int) "doc length" 3 (T.Inverted_index.document_length idx 1);
  Alcotest.(check (float 1e-9)) "avg length" 2.5 (T.Inverted_index.average_length idx);
  let p = T.Inverted_index.postings idx "wine" in
  Alcotest.(check (list (pair int int))) "postings" [ (1, 2); (2, 1) ]
    (List.init p.T.Inverted_index.len (fun i ->
         (p.T.Inverted_index.docs.(i), p.T.Inverted_index.tfs.(i))));
  Alcotest.(check (list string)) "distinct terms" [ "red"; "wine" ] (T.Inverted_index.terms idx 1)

let test_inverted_index_remove () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "a"; "b" ];
  T.Inverted_index.add_document idx 2 [ "a" ];
  T.Inverted_index.remove_document idx 1;
  Alcotest.(check int) "doc gone" 1 (T.Inverted_index.document_count idx);
  Alcotest.(check int) "term pruned" 0 (T.Inverted_index.document_frequency idx "b");
  Alcotest.(check int) "shared term kept" 1 (T.Inverted_index.document_frequency idx "a");
  Alcotest.(check bool) "mem" false (T.Inverted_index.mem idx 1);
  T.Inverted_index.remove_document idx 99 (* no-op, no exception *)

let test_inverted_index_replace () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "old" ];
  T.Inverted_index.add_document idx 1 [ "new" ];
  Alcotest.(check int) "old gone" 0 (T.Inverted_index.document_frequency idx "old");
  Alcotest.(check int) "new present" 1 (T.Inverted_index.document_frequency idx "new");
  Alcotest.(check int) "still one doc" 1 (T.Inverted_index.document_count idx)

(* --- scoring --- *)

let test_idf_ordering () =
  let idx = T.Inverted_index.create () in
  for d = 1 to 10 do
    T.Inverted_index.add_document idx d ([ "common" ] @ (if d = 1 then [ "rare" ] else []))
  done;
  Alcotest.(check bool) "rare term has higher idf" true
    (T.Scorer.idf idx "rare" > T.Scorer.idf idx "common")

let test_scores_ranking () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "wine"; "wine"; "wine" ];
  T.Inverted_index.add_document idx 2 [ "wine"; "cheese"; "bread" ];
  T.Inverted_index.add_document idx 3 [ "beer" ];
  List.iter
    (fun scorer ->
      match T.Scorer.scores scorer idx ~terms:[ "wine" ] with
      | (top, s1) :: (snd_, s2) :: [] ->
        Alcotest.(check int) "most wine-y first" 1 top;
        Alcotest.(check int) "other wine doc second" 2 snd_;
        Alcotest.(check bool) "scores ordered" true (s1 >= s2)
      | other -> Alcotest.failf "expected 2 hits, got %d" (List.length other))
    [ T.Scorer.Tf_idf; T.Scorer.default_bm25 ]

let test_scores_empty_query () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "x" ];
  Alcotest.(check int) "no terms, no hits" 0
    (List.length (T.Scorer.scores T.Scorer.default_bm25 idx ~terms:[]))

let test_multi_term_beats_single () =
  let idx = T.Inverted_index.create () in
  T.Inverted_index.add_document idx 1 [ "red"; "wine" ];
  T.Inverted_index.add_document idx 2 [ "red"; "carpet" ];
  match T.Scorer.scores T.Scorer.default_bm25 idx ~terms:[ "red"; "wine" ] with
  | (top, _) :: _ -> Alcotest.(check int) "both terms wins" 1 top
  | [] -> Alcotest.fail "no hits"

(* --- search facade --- *)

let index_text s d text = T.Search.index_terms s d (T.Tokenizer.terms text)

let test_search_facade () =
  let s = T.Search.create () in
  index_text s 1 "Gardening tips for rose bushes";
  index_text s 2 "Citizen Kane film analysis";
  (match T.Search.query s "gardening roses" with
  | { T.Search.doc = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "gardening doc should win");
  (* Stemming bridges query and document morphology. *)
  (match T.Search.query s "garden" with
  | { T.Search.doc = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "stemmed match failed")

let test_search_limit () =
  let s = T.Search.create () in
  for d = 1 to 20 do
    index_text s d "same text everywhere"
  done;
  Alcotest.(check int) "limit respected" 5 (List.length (T.Search.query ~limit:5 s "text"))

let test_search_deterministic_ties () =
  let s = T.Search.create () in
  for d = 1 to 5 do
    index_text s d "identical words"
  done;
  let docs r = List.map (fun (x : T.Search.result) -> x.T.Search.doc) r in
  Alcotest.(check (list int)) "ties by doc id" [ 1; 2; 3; 4; 5 ]
    (docs (T.Search.query s "identical"))

let suite =
  [
    Alcotest.test_case "tokenize" `Quick test_tokenize;
    Alcotest.test_case "tokenize url" `Quick test_tokenize_url;
    Alcotest.test_case "terms pipeline" `Quick test_terms_pipeline;
    Alcotest.test_case "stemmer" `Quick test_stemmer;
    Alcotest.test_case "stemmer idempotent" `Quick test_stemmer_idempotent_on_common_words;
    Alcotest.test_case "stopwords" `Quick test_stopwords;
    Alcotest.test_case "inverted index basics" `Quick test_inverted_index_basics;
    Alcotest.test_case "inverted index remove" `Quick test_inverted_index_remove;
    Alcotest.test_case "inverted index replace" `Quick test_inverted_index_replace;
    Alcotest.test_case "idf ordering" `Quick test_idf_ordering;
    Alcotest.test_case "scores ranking" `Quick test_scores_ranking;
    Alcotest.test_case "empty query" `Quick test_scores_empty_query;
    Alcotest.test_case "multi-term ranking" `Quick test_multi_term_beats_single;
    Alcotest.test_case "search facade" `Quick test_search_facade;
    Alcotest.test_case "search limit" `Quick test_search_limit;
    Alcotest.test_case "deterministic ties" `Quick test_search_deterministic_ties;
  ]
