(* shared-state-registry: every toplevel mutable binding under lib/ —
   [ref], [Hashtbl.create], [Ring.create], arrays, buffers,
   mutable-record literals —
   must be declared in the [Shared_state] manifest with a guarding
   strategy, so the concurrent provd planned in ROADMAP item 3 starts
   from a complete audited inventory instead of a grep.  Unregistered
   global mutable state fails the build; so does a manifest entry whose
   binding no longer exists (when its file is part of the linted set),
   so the inventory can neither lag nor rot.

   Detection is syntactic over structure items (locals inside function
   bodies are not global state): the binding's right-hand side must
   *itself* construct the mutable value.  A binding that receives a
   mutable value from a function call is invisible to this check — keep
   constructing global state literally at the binding. *)

open Parsetree

let id = "shared-state-registry"

let constructor_calls =
  [
    ("Hashtbl", [ "create" ]);
    ("Buffer", [ "create" ]);
    ("Queue", [ "create" ]);
    ("Stack", [ "create" ]);
    ("Atomic", [ "make" ]);
    ("Ring", [ "create" ]);
    ("Array", [ "make"; "init"; "create_float"; "make_matrix" ]);
    ("Bytes", [ "create"; "make" ]);
  ]

let rec unconstrain e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> unconstrain e
  | _ -> e

(* Labels declared [mutable] anywhere in the file's type declarations
   (nested modules included) — a record literal using one is mutable
   state even without a [ref] in sight. *)
let mutable_labels structure =
  let labels = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record lds ->
            List.iter
              (fun ld ->
                if ld.pld_mutable = Mutable then labels := ld.pld_name.Location.txt :: !labels)
              lds
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  !labels

let is_mutable_rhs ~mutable_labels e =
  match (unconstrain e).pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> begin
    match Source.flatten_last2 txt with
    | "", "ref" -> true
    | m, name -> begin
      match List.assoc_opt m constructor_calls with
      | Some ops -> List.mem name ops
      | None -> false
    end
  end
  | Pexp_array _ -> true
  | Pexp_record (fields, _) ->
    List.exists
      (fun ({ Location.txt; _ }, _) -> List.mem (Source.last txt) mutable_labels)
      fields
  | _ -> false

type binding = { b_file : string; b_name : string; b_line : int }

(* Toplevel mutable bindings of one file, nested modules dotted into the
   name ([Segmented.foo]). *)
let file_bindings file structure =
  let muts = mutable_labels structure in
  let acc = ref [] in
  let rec items path its = List.iter (item path) its
  and item path it =
    match it.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun vb ->
          match Callgraph.binding_name vb.pvb_pat with
          | Some name when is_mutable_rhs ~mutable_labels:muts vb.pvb_expr ->
            acc :=
              {
                b_file = file;
                b_name = String.concat "." (path @ [ name ]);
                b_line = vb.pvb_loc.Location.loc_start.Lexing.pos_lnum;
              }
              :: !acc
          | _ -> ())
        vbs
    | Pstr_module mb -> begin
      let name = match mb.pmb_name.Location.txt with Some n -> n | None -> "_" in
      match mb.pmb_expr.pmod_desc with
      | Pmod_structure s -> items (path @ [ name ]) s
      | _ -> ()
    end
    | Pstr_recmodule mbs ->
      List.iter
        (fun mb ->
          let name = match mb.pmb_name.Location.txt with Some n -> n | None -> "_" in
          match mb.pmb_expr.pmod_desc with
          | Pmod_structure s -> items (path @ [ name ]) s
          | _ -> ())
        mbs
    | _ -> ()
  in
  items [] structure;
  List.rev !acc

let run ?(manifest = Shared_state.manifest) parsed =
  let lib_parsed = List.filter (fun (file, _) -> Registry.in_lib file) parsed in
  let detected =
    List.concat_map (fun (file, structure) -> file_bindings file structure) lib_parsed
  in
  let linted_files = List.map fst lib_parsed in
  let unregistered =
    List.filter_map
      (fun b ->
        match
          List.find_opt
            (fun (en : Shared_state.entry) ->
              en.Shared_state.ss_file = b.b_file && en.Shared_state.ss_name = b.b_name)
            manifest
        with
        | Some _ -> None
        | None ->
          Some
            (Finding.v ~check:id ~file:b.b_file ~line:b.b_line ~col:0
               (Printf.sprintf
                  "toplevel mutable binding %s is not declared in the shared-state \
                   manifest (lib/lint/shared_state.ml): provd's audit needs its guard \
                   strategy"
                  b.b_name)))
      detected
  in
  let stale =
    List.filter_map
      (fun (en : Shared_state.entry) ->
        if
          List.mem en.Shared_state.ss_file linted_files
          && not
               (List.exists
                  (fun b ->
                    b.b_file = en.Shared_state.ss_file && b.b_name = en.Shared_state.ss_name)
                  detected)
        then
          Some
            (Finding.v ~check:id ~file:en.Shared_state.ss_file ~line:1 ~col:0
               (Printf.sprintf
                  "stale shared-state manifest entry %s (%s): the binding no longer \
                   exists — prune it from lib/lint/shared_state.ml"
                  en.Shared_state.ss_name
                  (Shared_state.guard_name en.Shared_state.ss_guard)))
        else None)
      manifest
  in
  unregistered @ stale
