(* epoch-discipline: every function in lib/relstore/table.ml that
   mutates table state (a Hashtbl operation on the row store / indexes,
   or a mutable-field assignment) must bump the modification epoch on
   every terminating path — directly, or through a callee that does.
   The epoch validates the query cache, the matview freshness check and
   the statistics catalog; a mutation path that skips the bump serves
   stale answers with no error anywhere.

   The "bumping" set is a fixpoint: seed with functions that must-reach
   [t.epoch <- ...], then add functions that must-reach a call into the
   set, until stable.  Raising paths are exempt (Dataflow.must_reach);
   loop bodies never satisfy the obligation — a bump inside [List.iter]
   runs zero times on the empty list. *)

open Parsetree

let id = "epoch-discipline"

let applies ~file = file = Registry.epoch_file

(* Evidence that an expression mutates table state somewhere. *)
let mutates expr =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
            let m, name = Source.flatten_last2 txt in
            if m = "Hashtbl" && Registry.is_mutating_op ~module_:"Hashtbl" ~name then
              found := true
          | Pexp_setfield (_, { txt; _ }, _) when Source.last txt <> Registry.epoch_field ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !found

let run ~file structure =
  if not (applies ~file) then []
  else begin
    let graph = Callgraph.build [ (file, structure) ] in
    let fns = Callgraph.file_fns graph file in
    let bumping : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let bumps_directly e =
      match e.pexp_desc with
      | Pexp_setfield (_, { txt; _ }, _) -> Source.last txt = Registry.epoch_field
      | _ -> false
    in
    let calls_bumping (f : Callgraph.fn) e =
      match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
        List.exists
          (fun g -> Hashtbl.mem bumping (Callgraph.fn_key g))
          (Callgraph.resolve graph ~file:f.Callgraph.fn_file
             ~line:loc.Location.loc_start.Lexing.pos_lnum txt)
      | _ -> false
    in
    let pass () =
      List.fold_left
        (fun changed f ->
          let key = Callgraph.fn_key f in
          if Hashtbl.mem bumping key then changed
          else begin
            let body = Dataflow.strip_params f.Callgraph.fn_expr in
            if Dataflow.must_reach ~matches:(fun e -> bumps_directly e || calls_bumping f e) body
            then begin
              Hashtbl.replace bumping key ();
              true
            end
            else changed
          end)
        false fns
    in
    while pass () do
      ()
    done;
    List.filter_map
      (fun (f : Callgraph.fn) ->
        if mutates f.Callgraph.fn_expr && not (Hashtbl.mem bumping (Callgraph.fn_key f)) then
          Some
            (Finding.v ~check:id ~file ~line:f.Callgraph.fn_line ~col:0
               (Printf.sprintf
                  "%s mutates table rows/indexes without bumping the modification epoch on \
                   every path; stale cache/matview/stats reads follow"
                  f.Callgraph.fn_name))
        else None)
      fns
  end
