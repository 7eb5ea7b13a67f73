(* URLs, topics, the synthetic web generator and the simulated search
   engine. *)

module Url = Webmodel.Url
module Topic = Webmodel.Topic
module Web = Webmodel.Web_graph
module Page = Webmodel.Page_content
module SE = Webmodel.Search_engine
module Prng = Provkit_util.Prng

(* --- urls --- *)

let test_url_roundtrip () =
  let cases =
    [
      "http://example.com";
      "http://example.com/a/b";
      "https://a.b.c/x?k=v";
      "http://site0.wine.example/articles/a3?id=7&x=1";
    ]
  in
  List.iter
    (fun s -> Alcotest.(check string) s s (Url.to_string (Url.of_string s)))
    cases

let test_url_parse_parts () =
  let u = Url.of_string "https://host.example/a/b?x=1&y=2" in
  Alcotest.(check string) "scheme" "https" u.Url.scheme;
  Alcotest.(check string) "host" "host.example" u.Url.host;
  Alcotest.(check (list string)) "path" [ "a"; "b" ] u.Url.path;
  Alcotest.(check (list (pair string string))) "query" [ ("x", "1"); ("y", "2") ] u.Url.query

let test_url_lenient () =
  let u = Url.of_string "bare.host/path" in
  Alcotest.(check string) "default scheme" "http" u.Url.scheme;
  Alcotest.(check string) "host" "bare.host" u.Url.host

let test_url_empty_host_rejected () =
  Alcotest.(check bool) "rejects empty host" true
    (try
       ignore (Url.of_string "http:///nohost");
       false
     with Invalid_argument _ -> true)

(* --- topics --- *)

(* The vocabulary holds [vocab_size] distinct words: enough draws see
   every rank (the rarest of 50 has mass ~0.4%), and a duplicate word
   would show as fewer distinct samples. *)
let test_topic_vocabulary () =
  let rng = Prng.create 1 in
  let t = Topic.generate ~rng ~id:0 ~name:"wine" ~vocab_size:50 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    Hashtbl.replace seen (Topic.sample_term t rng) ()
  done;
  Alcotest.(check int) "all distinct" 50 (Hashtbl.length seen);
  Alcotest.(check bool) "name in vocab" true (Hashtbl.mem seen "wine")

let test_topic_sampling () =
  let rng = Prng.create 2 in
  let t = Topic.generate ~rng ~id:0 ~name:"film" ~vocab_size:20 in
  let counts = Hashtbl.create 20 in
  for _ = 1 to 5000 do
    let w = Topic.sample_term t rng in
    Hashtbl.replace counts w (1 + Option.value ~default:0 (Hashtbl.find_opt counts w))
  done;
  let name_count = Option.value ~default:0 (Hashtbl.find_opt counts "film") in
  Alcotest.(check bool) "rank-0 term most frequent" true
    (Hashtbl.fold (fun _ c best -> max c best) counts 0 = name_count)

let test_topic_add_term () =
  let rng = Prng.create 3 in
  let t = Topic.generate ~rng ~id:0 ~name:"x" ~vocab_size:5 in
  Topic.add_term t "rosebud";
  let sampled = List.init 2000 (fun _ -> Topic.sample_term t rng) in
  Alcotest.(check bool) "added term is sampled" true (List.mem "rosebud" sampled)

(* --- web graph --- *)

let small_web () =
  Web.generate
    ~config:
      {
        Web.default_config with
        Web.n_topics = 4;
        sites_per_topic = 3;
        articles_per_site = 5;
        ambiguous_terms = 2;
      }
    ~seed:99 ()

let test_web_structure () =
  let web = small_web () in
  Alcotest.(check int) "topics" 4 (Web.topic_count web);
  Alcotest.(check bool) "pages exist" true (Web.page_count web > 0);
  (* Every link and embed target is a valid page id. *)
  Array.iter
    (fun (p : Page.t) ->
      Array.iter
        (fun l ->
          if l < 0 || l >= Web.page_count web then Alcotest.failf "bad link %d" l)
        p.Page.links;
      Array.iter
        (fun e ->
          Alcotest.(check bool) "embed is an image" true
            ((Web.page web e).Page.kind = Page.Image))
        p.Page.embeds)
    (Web.pages web)

let test_web_urls_unique_and_resolvable () =
  let web = small_web () in
  let urls =
    Array.to_list (Array.map (fun (p : Page.t) -> Url.to_string p.Page.url) (Web.pages web))
  in
  Alcotest.(check int) "one page per url" (List.length urls)
    (List.length (List.sort_uniq String.compare urls))

let test_web_redirects () =
  let web = small_web () in
  Array.iter
    (fun (p : Page.t) ->
      match p.Page.kind with
      | Page.Redirect -> begin
        Alcotest.(check bool) "redirect has target" true (p.Page.redirect_to <> None);
        match Web.resolve_redirects web p.Page.id with
        | [] -> Alcotest.fail "empty chain"
        | chain ->
          let final = List.nth chain (List.length chain - 1) in
          Alcotest.(check bool) "chain ends at content" true
            ((Web.page web final).Page.kind <> Page.Redirect)
      end
      | _ ->
        Alcotest.(check (list int)) "non-redirect chain is itself" [ p.Page.id ]
          (Web.resolve_redirects web p.Page.id))
    (Web.pages web)

let test_web_topic_partitions () =
  let web = small_web () in
  for ti = 0 to Web.topic_count web - 1 do
    List.iter
      (fun pid ->
        let p = Web.page web pid in
        Alcotest.(check int) "topic matches" ti p.Page.topic;
        Alcotest.(check bool) "navigable kinds" true (Page.is_navigable p))
      (Web.pages_of_topic web ti)
  done

let test_web_download_hosts_link_files () =
  let web = small_web () in
  List.iter
    (fun hid ->
      let host = Web.page web hid in
      Alcotest.(check bool) "host kind" true (host.Page.kind = Page.Download_host);
      Alcotest.(check bool) "links files" true
        (Array.exists (fun l -> (Web.page web l).Page.kind = Page.File) host.Page.links))
    (Web.download_hosts web)

let test_web_ambiguities () =
  let web = small_web () in
  let ambiguities = Web.ambiguities web in
  Alcotest.(check int) "planted count" 2 (List.length ambiguities);
  List.iter
    (fun (a : Web.ambiguity) ->
      Alcotest.(check bool) "distinct topics" true (a.Web.topic_a <> a.Web.topic_b);
      List.iter
        (fun (pages, topic) ->
          Alcotest.(check bool) "pages planted" true (pages <> []);
          List.iter
            (fun pid ->
              let p = Web.page web pid in
              Alcotest.(check int) "planted in right topic" topic p.Page.topic;
              Alcotest.(check bool) "term in title" true
                (Provkit_util.Strutil.contains_substring ~needle:a.Web.term p.Page.title))
            pages)
        [ (a.Web.pages_a, a.Web.topic_a); (a.Web.pages_b, a.Web.topic_b) ])
    ambiguities;
  match ambiguities with
  | first :: _ -> Alcotest.(check string) "rosebud first" "rosebud" first.Web.term
  | [] -> ()

let test_web_determinism () =
  let w1 = small_web () and w2 = small_web () in
  Alcotest.(check int) "same page count" (Web.page_count w1) (Web.page_count w2);
  Array.iter2
    (fun (a : Page.t) (b : Page.t) ->
      Alcotest.(check string) "same titles" a.Page.title b.Page.title)
    (Web.pages w1) (Web.pages w2)

(* --- search engine --- *)

let test_search_engine_finds_planted () =
  let web = small_web () in
  let se = SE.build web in
  let results = SE.search ~limit:10 se "rosebud" in
  Alcotest.(check bool) "rosebud searchable" true (results <> []);
  let planted =
    match Web.ambiguities web with a :: _ -> a.Web.pages_a @ a.Web.pages_b | [] -> []
  in
  Alcotest.(check bool) "top result is planted" true
    (match results with r :: _ -> List.mem r.SE.page planted | [] -> false)

let test_search_engine_excludes_hidden_kinds () =
  let web = small_web () in
  let se = SE.build web in
  (* Query every page's exact title; redirects/images must never appear. *)
  let results = SE.search ~limit:50 se "image" in
  List.iter
    (fun r ->
      let k = (Web.page web r.SE.page).Page.kind in
      Alcotest.(check bool) "not redirect/image" true (k <> Page.Redirect && k <> Page.Image))
    results

let test_serp_url_roundtrip () =
  let u = SE.serp_url "plane tickets cheap" in
  Alcotest.(check (option string)) "query encoded" (Some "plane+tickets+cheap")
    (List.assoc_opt "q" u.Url.query)

let suite =
  [
    Alcotest.test_case "url roundtrip" `Quick test_url_roundtrip;
    Alcotest.test_case "url parts" `Quick test_url_parse_parts;
    Alcotest.test_case "url lenient" `Quick test_url_lenient;
    Alcotest.test_case "url empty host" `Quick test_url_empty_host_rejected;
    Alcotest.test_case "topic vocabulary" `Quick test_topic_vocabulary;
    Alcotest.test_case "topic sampling" `Quick test_topic_sampling;
    Alcotest.test_case "topic add_term" `Quick test_topic_add_term;
    Alcotest.test_case "web structure" `Quick test_web_structure;
    Alcotest.test_case "web urls unique" `Quick test_web_urls_unique_and_resolvable;
    Alcotest.test_case "web redirects" `Quick test_web_redirects;
    Alcotest.test_case "web topic partitions" `Quick test_web_topic_partitions;
    Alcotest.test_case "download hosts" `Quick test_web_download_hosts_link_files;
    Alcotest.test_case "ambiguities" `Quick test_web_ambiguities;
    Alcotest.test_case "web determinism" `Quick test_web_determinism;
    Alcotest.test_case "search finds planted" `Quick test_search_engine_finds_planted;
    Alcotest.test_case "search excludes hidden kinds" `Quick test_search_engine_excludes_hidden_kinds;
    Alcotest.test_case "serp url roundtrip" `Quick test_serp_url_roundtrip;
  ]
