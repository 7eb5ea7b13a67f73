(* The array-postings inverted index and the dense-accumulator scorer
   against the reference models in Textindex_model, over
   PROV_TEST_SEED-seeded random op sequences.

   Index: after every add (fresh ids, re-adds, ids in any order) and
   remove (present ids, absent ids, and removals that leave a term with
   no postings), the postings (with their term frequencies), document
   frequencies, document lengths, distinct terms, document count,
   vocabulary size and average length must equal the model's.

   Scoring: Scorer.scores with and without a limit, for queries that
   repeat terms or name absent ones, must return the model's ranked
   hits with every score equal when rendered with %h; so must
   Scorer.score's lookup for every id, 0.0 for one the model does not
   rank, ids past the index's bound included. *)

module I = Textindex.Inverted_index
module S = Textindex.Scorer
module MI = Textindex_model.Inverted_index
module MS = Textindex_model.Scorer
module Prng = Provkit_util.Prng

(* A few common terms, so postings grow long and collide, and rarer
   ones, so removals empty terms. *)
let vocabulary =
  Array.init 16 (fun i -> if i < 6 then Printf.sprintf "c%d" i else Printf.sprintf "r%d" i)

let absent = "zz"

let random_terms rng =
  List.init (Prng.int rng 9) (fun _ ->
      if Prng.int rng 3 = 0 then Prng.pick rng vocabulary else vocabulary.(Prng.int rng 6))

type pair = { idx : I.t; model : MI.t; ids : int; mutable next : int }

let pair ids = { idx = I.create (); model = MI.create (); ids; next = 0 }

let add p doc terms =
  I.add_document p.idx doc terms;
  MI.add_document p.model doc terms

let remove p doc =
  I.remove_document p.idx doc;
  MI.remove_document p.model doc

(* One random op: an id that ascends as in a build, a random id (fresh
   or a re-add, in any order), or a removal, most often of a present
   doc. *)
let random_op rng p =
  match Prng.int rng 6 with
  | 0 | 1 when p.next < p.ids ->
    let doc = p.next in
    p.next <- doc + 1;
    add p doc (random_terms rng);
    Printf.sprintf "add %d (ascending)" doc
  | 0 | 1 | 2 | 3 ->
    let doc = Prng.int rng p.ids in
    let again = MI.mem p.model doc in
    add p doc (random_terms rng);
    Printf.sprintf "%s %d" (if again then "re-add" else "add") doc
  | _ ->
    let present = List.filter (MI.mem p.model) (List.init p.ids Fun.id) in
    let doc =
      if present <> [] && Prng.int rng 4 > 0 then Prng.pick_list rng present else Prng.int rng p.ids
    in
    remove p doc;
    Printf.sprintf "remove %d" doc

let postings idx term =
  let p = I.postings idx term in
  List.init p.I.len (fun i -> (p.I.docs.(i), p.I.tfs.(i)))

let bits x = Int64.bits_of_float x

let check_index ~where p =
  let at what x = Printf.sprintf "%s: %s %s" where what x in
  Alcotest.(check int) (where ^ ": document_count")
    (MI.document_count p.model) (I.document_count p.idx);
  Alcotest.(check int64) (where ^ ": average_length")
    (bits (MI.average_length p.model)) (bits (I.average_length p.idx));
  Array.iter
    (fun term ->
      Alcotest.(check (list (pair int int)))
        (at "postings" term) (MI.postings p.model term) (postings p.idx term);
      Alcotest.(check int) (at "df" term)
        (MI.document_frequency p.model term) (I.document_frequency p.idx term))
    (Array.append vocabulary [| absent |]);
  for doc = -1 to p.ids do
    let id = string_of_int doc in
    Alcotest.(check bool) (at "mem" id) (MI.mem p.model doc) (I.mem p.idx doc);
    Alcotest.(check int) (at "document_length" id)
      (MI.document_length p.model doc) (I.document_length p.idx doc);
    Alcotest.(check (list string)) (at "terms" id) (MI.terms p.model doc) (I.terms p.idx doc)
  done

let render hits = List.map (fun (doc, s) -> Printf.sprintf "%d %h" doc s) hits

let check_scores ~where rng p =
  let terms =
    List.init (Prng.int rng 6) (fun _ ->
        match Prng.int rng 8 with
        | 0 -> absent
        | 1 | 2 -> vocabulary.(0)
        | _ -> Prng.pick rng vocabulary)
  in
  let limit = Prng.pick rng [| None; None; Some 0; Some 1; Some 3; Some 10 |] in
  let where =
    Printf.sprintf "%s: [%s] limit %s" where (String.concat " " terms)
      (match limit with None -> "none" | Some k -> string_of_int k)
  in
  let want = MS.scores p.model ~terms in
  Alcotest.(check (list string)) (where ^ ": scores")
    (render (MS.truncate limit want))
    (render (S.scores ?limit p.idx ~terms));
  S.with_scores p.idx ~terms (fun s ->
      List.iter
        (fun doc ->
          Alcotest.(check string) (Printf.sprintf "%s: score %d" where doc)
            (Printf.sprintf "%h" (Option.value ~default:0.0 (List.assoc_opt doc want)))
            (Printf.sprintf "%h" (S.score s doc)))
        (max_int :: List.init (max p.ids (I.bound p.idx) + 1) Fun.id))

let test_ops_against_model () =
  let rng = Test_seed.prng ~salt:0x7e47 in
  for round = 1 to 25 do
    let p = pair (2 + Prng.int rng 40) in
    for step = 1 to 60 do
      let op = random_op rng p in
      let where = Printf.sprintf "round %d step %d (%s)" round step op in
      check_index ~where p;
      check_scores ~where rng p
    done
  done

(* Two indexes of different sizes scored in turn: the domain's one
   accumulator must not carry sums from one index or query to the next. *)
let test_accumulator_reuse () =
  let rng = Test_seed.prng ~salt:0x5c0e in
  let a = pair 200 and b = pair 5 in
  for _ = 1 to 300 do ignore (random_op rng a) done;
  for _ = 1 to 10 do ignore (random_op rng b) done;
  for step = 1 to 50 do
    let p, name = if Prng.bool rng then (a, "index a") else (b, "index b") in
    check_scores ~where:(Printf.sprintf "step %d, %s" step name) rng p
  done

let test_negative_id () =
  Alcotest.check_raises "negative id"
    (Invalid_argument "Inverted_index.add_document: negative id") (fun () ->
      I.add_document (I.create ()) (-1) [ "x" ])

let suite =
  [
    Alcotest.test_case "random ops: index and scores equal the model" `Quick
      test_ops_against_model;
    Alcotest.test_case "one accumulator across indexes" `Quick test_accumulator_reuse;
    Alcotest.test_case "negative ids are refused" `Quick test_negative_id;
  ]
