(* matview-purity: recovery refolds every registered view over the
   replayed op stream, and the differential tests compare that rebuild
   against a cold recomputation — both only work if folds are
   deterministic functions of (state, event).  So no function reachable
   from a view's [fold] may call [Faulty_io] / [Timing] / [Random],
   print (the impure printing entry points — [sprintf] stays legal), or
   assign toplevel mutable state outside the view's own accumulator.

   View specs are found syntactically: any record literal whose labels
   include [init], [fold] and [finalize] (the [Relstore.Matview.spec]
   shape).  The fold's expression seeds a reachability walk over the
   cross-module call graph; every reachable definition is scanned.
   Accumulator mutation is distinguished from global mutation by the
   root identifier of the assignment target: a root that resolves to a
   toplevel binding (or is module-qualified) is global state, a
   parameter or local is the accumulator. *)

open Parsetree

let id = "matview-purity"

let spec_labels = [ "init"; "fold"; "finalize" ]

(* Collect (file, view-name-hint, fold expression) for every spec
   record literal in the structure. *)
let spec_folds file structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_record (fields, _) ->
            let labels = List.map (fun ({ Location.txt; _ }, _) -> Source.last txt) fields in
            if List.for_all (fun l -> List.mem l labels) spec_labels then begin
              match
                List.find_opt (fun ({ Location.txt; _ }, _) -> Source.last txt = "fold") fields
              with
              | Some (_, fold_expr) -> acc := (file, fold_expr) :: !acc
              | None -> ()
            end
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !acc

(* The root identifier of an assignment target: [st.h.tbl] roots at
   [st]; anything that is not an identifier chain has no root. *)
let rec root_ident e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some txt
  | Pexp_field (e, _) -> root_ident e
  | Pexp_constraint (e, _) -> root_ident e
  | _ -> None

let run parsed =
  let lib_parsed = List.filter (fun (file, _) -> Registry.in_lib file) parsed in
  let graph = Callgraph.build parsed in
  let seeds = List.concat_map (fun (file, st) -> spec_folds file st) lib_parsed in
  if seeds = [] then []
  else begin
    let findings = ref [] in
    let reached = Callgraph.reachable graph seeds in
    (* Is this (possibly qualified) mutation-target root global state? *)
    let is_global_root file (loc : Location.t) lid =
      match lid with
      | Longident.Lident name ->
        Callgraph.resolve graph ~file ~line:loc.loc_start.Lexing.pos_lnum
          (Longident.Lident name)
        <> []
      | _ -> true (* module-qualified targets are toplevel by construction *)
    in
    let scan ~file expr =
      let emit loc msg = findings := Source.finding ~check:id ~file loc msg :: !findings in
      let check_target loc target what =
        match root_ident target with
        | Some lid when is_global_root file loc lid ->
          emit loc
            (Printf.sprintf
               "view fold %s toplevel mutable state (%s): recovery refolds must be \
                deterministic functions of the accumulator"
               what
               (String.concat "." (Longident.flatten lid)))
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident { txt; loc } ->
                let parts = Longident.flatten txt in
                let mods = match List.rev parts with _ :: rev_mods -> List.rev rev_mods | [] -> [] in
                let mods =
                  match mods with
                  | head :: tl -> begin
                    match Callgraph.alias_target graph file head with
                    | Some tgt -> tgt :: tl
                    | None -> mods
                  end
                  | [] -> []
                in
                if List.exists (fun m -> List.mem m Registry.matview_banned_modules) mods
                then
                  emit loc
                    (Printf.sprintf
                       "view fold reaches %s: nondeterministic/effectful calls break \
                        recovery refolds"
                       (String.concat "." parts))
                else if
                  List.mem (Source.last txt) Registry.matview_banned_prints
                  && (mods = [] || List.mem (List.hd (List.rev mods)) [ "Printf"; "Format" ])
                then
                  emit loc
                    (Printf.sprintf "view fold prints (%s): folds must be side-effect free"
                       (String.concat "." parts))
              | Pexp_setfield (target, _, _) -> check_target e.pexp_loc target "assigns"
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, (_, arg0) :: _) -> begin
                match Source.flatten_last2 txt with
                | "", ":=" -> check_target e.pexp_loc arg0 "assigns"
                | "", ("incr" | "decr") -> check_target e.pexp_loc arg0 "mutates"
                | m, name when Registry.is_mutating_op ~module_:m ~name ->
                  check_target e.pexp_loc arg0 "mutates"
                | _ -> ()
              end
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.expr it expr
    in
    List.iter (fun (file, e) -> scan ~file e) seeds;
    List.iter
      (fun (f : Callgraph.fn) ->
        if Registry.in_lib f.Callgraph.fn_file then scan ~file:f.Callgraph.fn_file f.Callgraph.fn_expr)
      reached;
    List.sort_uniq Finding.compare !findings
  end
