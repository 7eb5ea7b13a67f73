type kind =
  | Link_traversal
  | Typed_traversal
  | Bookmark_traversal
  | Bookmarked_from
  | Redirect
  | Embed
  | Form_source
  | Form_result
  | Download_source
  | Download_fetch
  | Search_query
  | Searched_from
  | Instance
  | Tab_spawn
  | Reload
  | Same_time

type t = { kind : kind; time : int }

let kind_code = function
  | Link_traversal -> 0
  | Typed_traversal -> 1
  | Bookmark_traversal -> 2
  | Bookmarked_from -> 3
  | Redirect -> 4
  | Embed -> 5
  | Form_source -> 6
  | Form_result -> 7
  | Download_source -> 8
  | Download_fetch -> 9
  | Search_query -> 10
  | Searched_from -> 11
  | Instance -> 12
  | Tab_spawn -> 13
  | Same_time -> 14
  | Reload -> 15

let all_kinds =
  [
    Link_traversal; Typed_traversal; Bookmark_traversal; Bookmarked_from; Redirect;
    Embed; Form_source; Form_result; Download_source; Download_fetch; Search_query;
    Searched_from; Instance; Tab_spawn; Same_time; Reload;
  ]

let kind_of_code c =
  match List.find_opt (fun k -> kind_code k = c) all_kinds with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Prov_edge.kind_of_code: %d" c)

let kind_name = function
  | Link_traversal -> "link"
  | Typed_traversal -> "typed"
  | Bookmark_traversal -> "bookmark-traversal"
  | Bookmarked_from -> "bookmarked-from"
  | Redirect -> "redirect"
  | Embed -> "embed"
  | Form_source -> "form-source"
  | Form_result -> "form-result"
  | Download_source -> "download-source"
  | Download_fetch -> "download-fetch"
  | Search_query -> "search-query"
  | Searched_from -> "searched-from"
  | Instance -> "instance"
  | Tab_spawn -> "tab-spawn"
  | Same_time -> "same-time"
  | Reload -> "reload"

let is_causal = function
  | Same_time -> false
  | Link_traversal | Typed_traversal | Bookmark_traversal | Bookmarked_from | Redirect
  | Embed | Form_source | Form_result | Download_source | Download_fetch | Search_query
  | Searched_from | Instance | Tab_spawn | Reload -> true

let is_traversal = function
  | Instance | Same_time -> false
  | Link_traversal | Typed_traversal | Bookmark_traversal | Bookmarked_from | Redirect
  | Embed | Form_source | Form_result | Download_source | Download_fetch | Search_query
  | Searched_from | Tab_spawn | Reload -> true
