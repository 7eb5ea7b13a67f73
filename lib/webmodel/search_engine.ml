type t = { search : Textindex.Search.t }

type result = { page : int; score : float }

let engine_host = "search.example"

let build web =
  let search = Textindex.Search.create () in
  Array.iter
    (fun (p : Page_content.t) ->
      match p.Page_content.kind with
      | Page_content.Redirect | Page_content.Image -> ()
      | Page_content.Article | Page_content.Hub | Page_content.Download_host
      | Page_content.File ->
        Textindex.Search.index_terms search p.Page_content.id (Page_content.text_terms p))
    (Web_graph.pages web);
  { search }

let encode_query q = String.concat "+" (String.split_on_char ' ' (String.trim q))

let serp_url query =
  Url.make ~path:[ "search" ] ~query:[ ("q", encode_query query) ] engine_host

let search ?(limit = 10) t query =
  List.map
    (fun (r : Textindex.Search.result) ->
      { page = r.Textindex.Search.doc; score = r.Textindex.Search.score })
    (Textindex.Search.query ~limit t.search query)
