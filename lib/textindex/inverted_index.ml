type postings = { mutable docs : int array; mutable tfs : int array; mutable len : int }

type t = {
  table : (string, postings) Hashtbl.t;
  mutable doc_terms : string list array;  (* distinct terms, ascending *)
  mutable doc_len : int array;  (* -1 for an id that holds no document *)
  mutable count : int;
  mutable total_len : int;
}

let create () =
  { table = Hashtbl.create 1024; doc_terms = [||]; doc_len = [||]; count = 0; total_len = 0 }

let empty () = { docs = [||]; tfs = [||]; len = 0 }
let mem t doc = doc >= 0 && doc < Array.length t.doc_len && t.doc_len.(doc) >= 0
let document_count t = t.count
let document_length t doc = if mem t doc then t.doc_len.(doc) else 0
let bound t = Array.length t.doc_len
let terms t doc = if mem t doc then t.doc_terms.(doc) else []

let average_length t =
  if t.count = 0 then 0.0 else float_of_int t.total_len /. float_of_int t.count

(* The first position in [p] whose doc id is >= [doc]. *)
let search p doc =
  let lo = ref 0 and hi = ref p.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if p.docs.(mid) < doc then lo := mid + 1 else hi := mid
  done;
  !lo

let insert p doc tf =
  if p.len = Array.length p.docs then begin
    let cap = max 1 (2 * p.len) in
    let docs = Array.make cap 0 and tfs = Array.make cap 0 in
    Array.blit p.docs 0 docs 0 p.len;
    Array.blit p.tfs 0 tfs 0 p.len;
    p.docs <- docs;
    p.tfs <- tfs
  end;
  (* Ids ascend during a build, so this is nearly always an append. *)
  let i = if p.len = 0 || p.docs.(p.len - 1) < doc then p.len else search p doc in
  Array.blit p.docs i p.docs (i + 1) (p.len - i);
  Array.blit p.tfs i p.tfs (i + 1) (p.len - i);
  p.docs.(i) <- doc;
  p.tfs.(i) <- tf;
  p.len <- p.len + 1

let delete p doc =
  let i = search p doc in
  if i < p.len && p.docs.(i) = doc then begin
    Array.blit p.docs (i + 1) p.docs i (p.len - i - 1);
    Array.blit p.tfs (i + 1) p.tfs i (p.len - i - 1);
    p.len <- p.len - 1
  end

let remove_document t doc =
  if mem t doc then begin
    List.iter
      (fun term ->
        match Hashtbl.find_opt t.table term with
        | None -> ()
        | Some p ->
          delete p doc;
          if p.len = 0 then Hashtbl.remove t.table term)
      t.doc_terms.(doc);
    t.total_len <- t.total_len - t.doc_len.(doc);
    t.count <- t.count - 1;
    t.doc_terms.(doc) <- [];
    t.doc_len.(doc) <- -1
  end

let ensure_bound t doc =
  let have = Array.length t.doc_len in
  if doc >= have then begin
    let cap = max (doc + 1) (2 * have) in
    let len = Array.make cap (-1) and terms = Array.make cap [] in
    Array.blit t.doc_len 0 len 0 have;
    Array.blit t.doc_terms 0 terms 0 have;
    t.doc_len <- len;
    t.doc_terms <- terms
  end

(* Appends [term] with frequency [tf] to [doc]'s postings. *)
let post t doc term tf =
  let p =
    match Hashtbl.find_opt t.table term with
    | Some p -> p
    | None ->
      let p = empty () in
      Hashtbl.add t.table term p;
      p
  in
  insert p doc tf

let add_document t doc terms =
  if doc < 0 then invalid_arg "Inverted_index.add_document: negative id";
  remove_document t doc;
  ensure_bound t doc;
  (* Runs of equal terms in sorted order give each distinct term and its
     frequency. *)
  let rec distinct acc = function
    | [] -> List.rev acc
    | term :: rest ->
      let rec run n = function
        | next :: rest when String.equal next term -> run (n + 1) rest
        | rest -> (n, rest)
      in
      let tf, rest = run 1 rest in
      post t doc term tf;
      distinct (term :: acc) rest
  in
  t.doc_terms.(doc) <- distinct [] (List.sort String.compare terms);
  let len = List.length terms in
  t.doc_len.(doc) <- len;
  t.count <- t.count + 1;
  t.total_len <- t.total_len + len

let postings t term =
  match Hashtbl.find_opt t.table term with Some p -> p | None -> empty ()

let document_frequency t term = (postings t term).len
