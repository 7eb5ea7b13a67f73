(* Model-based testing of Relstore.Table: random operation sequences are
   applied both to the real table (with indexes) and to a trivial
   association-list model; every observable must agree, and serialized
   round trips must preserve the state. *)

module R = Relstore

type op =
  | Insert of string * int
  | Update of int * int  (* pick rowid by position modulo live rows; new qty *)
  | Lookup_qty of int  (* find_by qty *)

let op_gen =
  let open QCheck.Gen in
  frequency
    [
      (5, map2 (fun s n -> Insert (s, n)) (string_size ~gen:(char_range 'a' 'z') (return 3)) (int_bound 5));
      (2, map2 (fun i n -> Update (i, n)) (int_bound 50) (int_bound 5));
      (2, map (fun n -> Lookup_qty n) (int_bound 5));
    ]

let print_op = function
  | Insert (s, n) -> Printf.sprintf "Insert(%s,%d)" s n
  | Update (i, n) -> Printf.sprintf "Update(%d,%d)" i n
  | Lookup_qty n -> Printf.sprintf "Lookup(%d)" n

let schema () =
  R.Schema.make ~name:"model"
    [ R.Column.make "name" R.Value.Ttext; R.Column.make "qty" R.Value.Tint ]

(* The model: (rowid, name, qty) assoc list plus a next-id counter. *)
type model = { mutable rows : (int * string * int) list; mutable next : int }

let model_pick m i =
  match m.rows with
  | [] -> None
  | rows -> Some (List.nth rows (i mod List.length rows))

let apply_model m = function
  | Insert (name, qty) ->
    m.rows <- m.rows @ [ (m.next, name, qty) ];
    m.next <- m.next + 1
  | Update (i, qty) -> begin
    match model_pick m i with
    | None -> ()
    | Some (rowid, name, _) ->
      m.rows <- List.map (fun (r, n, q) -> if r = rowid then (r, name, qty) else (r, n, q)) m.rows
  end
  | Lookup_qty _ -> ()

let apply_table table m op =
  (* The table mirrors the model's choice of victim so both sides stay
     aligned. *)
  match op with
  | Insert (name, qty) ->
    ignore
      (R.Table.insert_fields table [ ("name", R.Value.Text name); ("qty", R.Value.Int qty) ])
  | Update (i, qty) -> begin
    match model_pick m i with
    | None -> ()
    | Some (rowid, _, _) -> R.Table.update_field table rowid "qty" (R.Value.Int qty)
  end
  | Lookup_qty _ -> ()

let observe_table table =
  List.map
    (fun (rowid, row) ->
      (rowid, R.Value.to_text row.(0), R.Value.to_int row.(1)))
    (R.Table.rows table)

let agree table m =
  observe_table table = m.rows
  && List.for_all
       (fun qty ->
         let via_index =
           List.map fst (R.Table.find_by table ~columns:[ "qty" ] [ R.Value.Int qty ])
         in
         let via_model =
           List.filter_map (fun (r, _, q) -> if q = qty then Some r else None) m.rows
         in
         List.sort Int.compare via_index = List.sort Int.compare via_model)
       [ 0; 1; 2; 3; 4; 5 ]

let run_ops ops =
  let table = R.Table.create (schema ()) in
  R.Table.add_index table ~name:"by_qty" ~columns:[ "qty" ];
  let m = { rows = []; next = 1 } in
  List.for_all
    (fun op ->
      (* Table first: it reads the model to pick victims, so the model
         must not have advanced yet. *)
      apply_table table m op;
      apply_model m op;
      agree table m)
    ops

let prop_model_agreement =
  QCheck.Test.make ~name:"table agrees with model under random ops" ~count:120
    (QCheck.make ~print:(fun ops -> String.concat ";" (List.map print_op ops))
       (QCheck.Gen.list_size (QCheck.Gen.int_bound 40) op_gen))
    run_ops

let prop_serialization_preserves_state =
  QCheck.Test.make ~name:"serialize/deserialize preserves table state" ~count:60
    (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_bound 30) op_gen)) (fun ops ->
      let table = R.Table.create (schema ()) in
      R.Table.add_index table ~name:"by_qty" ~columns:[ "qty" ];
      let m = { rows = []; next = 1 } in
      List.iter
        (fun op ->
          apply_table table m op;
          apply_model m op)
        ops;
      let buf = Buffer.create 256 in
      R.Table.serialize buf table;
      let pos = ref 0 in
      let table' = R.Table.deserialize (Buffer.contents buf) pos in
      observe_table table' = observe_table table && agree table' m)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_model_agreement;
    QCheck_alcotest.to_alcotest prop_serialization_preserves_state;
  ]
