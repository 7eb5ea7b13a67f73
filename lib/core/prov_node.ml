type kind =
  | Page of { url : string; title : string }
  | Visit of { url : string; title : string; transition : Browser.Transition.t; tab : int }
  | Bookmark of { title : string; url : string }
  | Download of { source_url : string; target_path : string }
  | Search_term of { query : string }
  | Form_submission of { fields : (string * string) list }

type t = { id : int; kind : kind; time : int option; close_time : int option }

let kind_code = function
  | Page _ -> 0
  | Visit _ -> 1
  | Bookmark _ -> 2
  | Download _ -> 3
  | Search_term _ -> 4
  | Form_submission _ -> 5

let kind_label = function
  | Page _ -> "page"
  | Visit _ -> "visit"
  | Bookmark _ -> "bookmark"
  | Download _ -> "download"
  | Search_term _ -> "search-term"
  | Form_submission _ -> "form"

let text_terms t =
  let module Tok = Textindex.Tokenizer in
  match t.kind with
  | Page { url; title } | Visit { url; title; _ } | Bookmark { title; url } ->
    Tok.terms title @ Tok.terms_of_url url
  | Download { source_url; target_path } ->
    Tok.terms_of_url source_url @ Tok.terms_of_url target_path
  | Search_term { query } -> Tok.terms query
  | Form_submission { fields } ->
    List.concat_map (fun (_, value) -> Tok.terms value) fields

let display t =
  match t.kind with
  | Page { url; title } -> Printf.sprintf "page %S <%s>" title url
  | Visit { url; title; transition; _ } ->
    Printf.sprintf "visit %S <%s> via %s" title url (Browser.Transition.name transition)
  | Bookmark { title; _ } -> Printf.sprintf "bookmark %S" title
  | Download { target_path; _ } -> Printf.sprintf "download %s" target_path
  | Search_term { query } -> Printf.sprintf "search %S" query
  | Form_submission { fields } ->
    Printf.sprintf "form {%s}"
      (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) fields))

let is_page t = match t.kind with Page _ -> true | _ -> false
let is_visit t = match t.kind with Visit _ -> true | _ -> false
let is_download t = match t.kind with Download _ -> true | _ -> false

let url_of t =
  match t.kind with
  | Page { url; _ } | Visit { url; _ } | Bookmark { url; _ } -> Some url
  | Download { source_url; _ } -> Some source_url
  | Search_term _ | Form_submission _ -> None
