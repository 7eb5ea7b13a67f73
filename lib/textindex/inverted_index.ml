module Imap = Map.Make (Int)

type t = {
  table : (string, int Imap.t) Hashtbl.t;  (* term -> doc -> tf *)
  doc_terms : (int, string list) Hashtbl.t;
  doc_len : (int, int) Hashtbl.t;
  mutable total_len : int;
}

let create () =
  {
    table = Hashtbl.create 1024;
    doc_terms = Hashtbl.create 256;
    doc_len = Hashtbl.create 256;
    total_len = 0;
  }

let mem t doc = Hashtbl.mem t.doc_len doc
let document_count t = Hashtbl.length t.doc_len

let document_length t doc =
  Option.value ~default:0 (Hashtbl.find_opt t.doc_len doc)

let average_length t =
  let n = document_count t in
  if n = 0 then 0.0 else float_of_int t.total_len /. float_of_int n

let distinct terms = List.sort_uniq String.compare terms

let remove_document t doc =
  match Hashtbl.find_opt t.doc_terms doc with
  | None -> ()
  | Some terms ->
    List.iter
      (fun term ->
        match Hashtbl.find_opt t.table term with
        | None -> ()
        | Some docs ->
          let docs' = Imap.remove doc docs in
          if Imap.is_empty docs' then Hashtbl.remove t.table term
          else Hashtbl.replace t.table term docs')
      (distinct terms);
    t.total_len <- t.total_len - document_length t doc;
    Hashtbl.remove t.doc_terms doc;
    Hashtbl.remove t.doc_len doc

let add_document t doc terms =
  if mem t doc then remove_document t doc;
  let counts = Hashtbl.create 16 in
  List.iter
    (fun term ->
      let n = Option.value ~default:0 (Hashtbl.find_opt counts term) in
      Hashtbl.replace counts term (n + 1))
    terms;
  Hashtbl.iter
    (fun term tf ->
      let docs = Option.value ~default:Imap.empty (Hashtbl.find_opt t.table term) in
      Hashtbl.replace t.table term (Imap.add doc tf docs))
    counts;
  Hashtbl.replace t.doc_terms doc terms;
  let len = List.length terms in
  Hashtbl.replace t.doc_len doc len;
  t.total_len <- t.total_len + len

let term_frequency t ~term =
  match Hashtbl.find_opt t.table term with
  | None -> fun ~doc:_ -> 0
  | Some docs -> fun ~doc -> Option.value ~default:0 (Imap.find_opt doc docs)

let document_frequency t term =
  match Hashtbl.find_opt t.table term with
  | None -> 0
  | Some docs -> Imap.cardinal docs

let postings t term =
  match Hashtbl.find_opt t.table term with
  | None -> []
  | Some docs -> Imap.bindings docs

let vocabulary_size t = Hashtbl.length t.table
