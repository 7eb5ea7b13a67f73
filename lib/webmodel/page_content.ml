type kind = Article | Hub | Redirect | Image | Download_host | File

type t = {
  id : int;
  url : Url.t;
  title : string;
  body : string list;
  topic : int;
  kind : kind;
  links : int array;
  redirect_to : int option;
  embeds : int array;
}

let text_terms t =
  let title_terms = Textindex.Tokenizer.terms t.title in
  let url_terms = Textindex.Tokenizer.terms_of_url (Url.to_string t.url) in
  let body_terms =
    List.concat_map (fun w -> Textindex.Tokenizer.terms w) t.body
  in
  title_terms @ title_terms @ url_terms @ body_terms

let is_navigable t = t.kind <> Image
