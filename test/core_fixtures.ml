(* Shared fixtures for the core provenance tests: a small synthetic web,
   an engine with full capture attached, and scripted browsing
   helpers. *)

module Web = Webmodel.Web_graph
module Page = Webmodel.Page_content
module Engine = Browser.Engine

(* A committed fixture under test/data.  Dune copies that directory
   beside the test binary, so it is found from wherever the binary is
   started. *)
let data_path file =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "data") file

let small_web_config =
  {
    Web.default_config with
    Web.n_topics = 4;
    sites_per_topic = 2;
    articles_per_site = 5;
    ambiguous_terms = 2;
  }

let make ?(capture_config = Core.Capture.full) ?(seed = 11) () =
  let web = Web.generate ~config:small_web_config ~seed () in
  let se = Webmodel.Search_engine.build web in
  let engine = Engine.create ~web ~search:se () in
  let api = Core.Api.attach ~capture_config engine in
  (web, engine, api)

let first_of_kind web kind =
  let rec scan i =
    if i >= Web.page_count web then failwith "kind not found"
    else if (Web.page web i).Page.kind = kind then i
    else scan (i + 1)
  in
  scan 0

let article web = first_of_kind web Page.Article
let hub web = first_of_kind web Page.Hub

let file_of_host web host =
  Array.to_list (Web.page web host).Page.links
  |> List.find (fun l -> (Web.page web l).Page.kind = Page.File)

(* Run the stochastic user model briefly over a fresh engine+capture. *)
let simulated ?(capture_config = Core.Capture.full) ?(seed = 3) ?(days = 2) () =
  let web = Web.generate ~config:small_web_config ~seed () in
  let se = Webmodel.Search_engine.build web in
  let engine = Engine.create ~web ~search:se () in
  let api = Core.Api.attach ~capture_config engine in
  let rng = Provkit_util.Prng.create (seed + 1) in
  let config =
    {
      Browser.User_model.default_config with
      Browser.User_model.days;
      sessions_per_day = 3;
      actions_per_session = 15;
    }
  in
  let trace = Browser.User_model.run ~config ~rng engine in
  (web, engine, api, trace)
