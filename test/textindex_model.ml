(* Reference model for the text index: the Imap-postings inverted index
   and the Hashtbl-accumulator scorer that the sorted posting arrays and
   the dense accumulator replaced, kept as written then, so the
   properties in Test_textindex_model can compare the arrays against the
   structure whose float sums the §2 answers were first pinned with.
   Two functions were added to the old code: [Inverted_index.terms], the
   view the arrays' index gained, and [Scorer.truncate], the cut to a
   limit that [Search.query_terms] made after sorting every hit. *)

module Imap = Map.Make (Int)

module Inverted_index = struct
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

  let terms t doc = distinct (Option.value ~default:[] (Hashtbl.find_opt t.doc_terms doc))
end

module Scorer = struct
  type t = Textindex.Scorer.t = Tf_idf | Bm25 of { k1 : float; b : float }

  let idf index term =
    let n = Inverted_index.document_count index in
    if n = 0 then 0.0
    else begin
      let df = float_of_int (Inverted_index.document_frequency index term) in
      log (1.0 +. ((float_of_int n -. df +. 0.5) /. (df +. 0.5)))
    end

  let tf_weight scorer index ~doc tf =
    let tf = float_of_int tf in
    match scorer with
    | Tf_idf -> if tf > 0.0 then 1.0 +. log tf else 0.0
    | Bm25 { k1; b } ->
      let len = float_of_int (Inverted_index.document_length index doc) in
      let avg = max 1.0 (Inverted_index.average_length index) in
      tf *. (k1 +. 1.0) /. (tf +. (k1 *. (1.0 -. b +. (b *. len /. avg))))

  let score_document scorer index ~terms =
    let per_term =
      List.map (fun term -> (Inverted_index.term_frequency index ~term, idf index term)) terms
    in
    fun ~doc ->
      List.fold_left
        (fun acc (tf_of, idf) ->
          let tf = tf_of ~doc in
          if tf = 0 then acc else acc +. (idf *. tf_weight scorer index ~doc tf))
        0.0 per_term

  let scores scorer index ~terms =
    let acc = Hashtbl.create 64 in
    let query_terms = List.sort_uniq String.compare terms in
    (* Count duplicates in the query as term boosts. *)
    let qtf term = List.length (List.filter (String.equal term) terms) in
    List.iter
      (fun term ->
        let weight = idf index term *. float_of_int (qtf term) in
        if weight > 0.0 then
          List.iter
            (fun (doc, tf) ->
              let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc doc) in
              Hashtbl.replace acc doc
                (prev +. (weight *. tf_weight scorer index ~doc tf)))
            (Inverted_index.postings index term))
      query_terms;
    let hits = Hashtbl.fold (fun doc s l -> (doc, s) :: l) acc [] in
    let hits = List.filter (fun (_, s) -> s > 0.0) hits in
    List.sort
      (fun (da, sa) (db, sb) ->
        let c = Float.compare sb sa in
        if c <> 0 then c else Int.compare da db)
      hits

  let truncate limit hits =
    match limit with
    | None -> hits
    | Some n -> List.filteri (fun i _ -> i < n) hits
end
