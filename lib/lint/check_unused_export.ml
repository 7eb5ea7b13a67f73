(* unused-export: every [val] in a lib/ interface must be used by a
   program — code under lib/, bin/, bench/, perfbench/ or examples/.
   A use from test/ alone does not count: a function that only its own
   tests call is dead weight that the tests keep alive.  A use inside
   the val's own module does count, so the check finds dead code, not
   over-exported code; once a val leaves its .mli, the compiler's
   unused-value warning takes over for the helpers it strands.

   Vals are collected from each lib/**/*.mli, nested signatures
   ([module Segmented : sig ... end]) included.  Uses are resolved with
   the call graph's rules (see callgraph.ml): a qualified [M.f] or
   [A.M.f] names the val whose module path ends its qualifier, after a
   leading module alias ([module PL = Core.Prov_log]) is expanded; a
   nested module may also be named from inside its own file.  The
   resolution over-approximates, so an ambiguous name counts as a use:
   an unqualified name in a file that opens [M] counts for [M]; a
   module passed to a functor, packed or included counts as using all
   of its vals; and two modules of the same name (Core's and Obs'
   [Metrics]) share every unwrapped use. *)

open Parsetree

let id = "unused-export"

(* --- interfaces: the exported vals --- *)

type export = {
  file : string;
  path : string list;  (* file module, then nested modules *)
  name : string;
  loc : Location.t;
}

let exports file (sg : signature) =
  let acc = ref [] in
  let rec items path sg = List.iter (item path) sg
  and item path si =
    match si.psig_desc with
    | Psig_value vd -> acc := { file; path; name = vd.pval_name.txt; loc = vd.pval_loc } :: !acc
    | Psig_module md -> decl path md
    | Psig_recmodule mds -> List.iter (decl path) mds
    | _ -> ()
  and decl path md =
    match (md.pmd_name.txt, md.pmd_type.pmty_desc) with
    | Some name, Pmty_signature sg -> items (path @ [ name ]) sg
    | _ -> ()
  in
  items [ Callgraph.module_of_file file ] sg;
  List.rev !acc

(* --- implementations: the uses --- *)

type bare = { scope : string list; self : string }
(* An unqualified use: the module path it sits in, and the
   structure-level binding around it ([""] outside any). *)

type index = {
  qualified : (string * (string * string list) list) list;
      (* [M, ("M.f", qualifier path of a use of f ending in M)], grouped
         by M and deduplicated; opens contribute their path as a
         qualifier *)
  bare : (string, bare) Hashtbl.t;  (* by name, for the file's own module *)
  whole : string list list;  (* modules used wholesale *)
}

let index_of structure =
  let aliases = ref [] in
  let expand = function
    | head :: tl as path -> (
      match List.assoc_opt head !aliases with Some p -> p @ tl | None -> path)
    | [] -> []
  in
  let mod_path lid = expand (Longident.flatten lid) in
  let opens = ref [] and whole = ref [] in
  let uses = ref [] in
  let bare = Hashtbl.create 64 in
  let scope = ref [] and self = ref "" in
  let whole_of me =
    match me.pmod_desc with Pmod_ident { txt; _ } -> whole := mod_path txt :: !whole | _ -> ()
  in
  let dflt = Ast_iterator.default_iterator in
  let it =
    {
      dflt with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match List.rev (Longident.flatten txt) with
            | [ name ] -> Hashtbl.add bare name { scope = !scope; self = !self }
            | name :: rev_quals -> uses := (expand (List.rev rev_quals), name) :: !uses
            | [] -> ())
          | Pexp_letmodule ({ txt = Some name; _ }, { pmod_desc = Pmod_ident { txt; _ }; _ }, _)
            ->
            aliases := (name, mod_path txt) :: !aliases
          | Pexp_pack me -> whole_of me
          | _ -> ());
          dflt.expr it e);
      open_declaration =
        (fun it od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> opens := mod_path txt :: !opens
          | _ -> ());
          dflt.open_declaration it od);
      module_expr =
        (fun it me ->
          (match me.pmod_desc with Pmod_apply (_, arg) -> whole_of arg | _ -> ());
          dflt.module_expr it me);
      module_binding =
        (fun it mb ->
          let name = Option.value ~default:"_" mb.pmb_name.txt in
          (match mb.pmb_expr.pmod_desc with
          | Pmod_ident { txt; _ } -> aliases := (name, mod_path txt) :: !aliases
          | _ -> ());
          let saved = (!scope, !self) in
          scope := !scope @ [ name ];
          self := "";
          dflt.module_binding it mb;
          scope := fst saved;
          self := snd saved);
      structure_item =
        (fun it si ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                self := Option.value ~default:"" (Callgraph.binding_name vb.pvb_pat);
                it.value_binding it vb)
              vbs;
            self := ""
          | Pstr_include incl ->
            whole_of incl.pincl_mod;
            dflt.structure_item it si
          | _ -> dflt.structure_item it si);
    }
  in
  it.structure it structure;
  let qualified = Hashtbl.create 64 in
  let add quals name =
    match List.rev quals with
    | last :: _ ->
      let uses = Option.value ~default:[] (Hashtbl.find_opt qualified last) in
      let use = (last ^ "." ^ name, quals) in
      if not (List.mem use uses) then Hashtbl.replace qualified last (use :: uses)
    | [] -> ()
  in
  List.iter (fun (quals, name) -> add quals name) !uses;
  List.iter
    (fun o ->
      Hashtbl.iter (fun name _ -> add o name) bare;
      List.iter (fun (quals, name) -> add (o @ quals) name) !uses)
    !opens;
  {
    qualified = Hashtbl.fold (fun m uses acc -> (m, uses) :: acc) qualified [];
    bare;
    whole = !whole;
  }

(* Indexing is a pure function of the parsed tree, so it is memoized
   like the parse itself: per file, valid while the cache hands back the
   physically same tree. *)
let index_cache : (string, structure * index) Hashtbl.t = Hashtbl.create 64
let clear_cache () = Hashtbl.reset index_cache

let index ~file structure =
  match Hashtbl.find_opt index_cache file with
  | Some (s, idx) when s == structure -> idx
  | _ ->
    let idx = index_of structure in
    Hashtbl.replace index_cache file (structure, idx);
    idx

(* --- matching --- *)

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let ends_with ~suffix l =
  let n = List.length l and k = List.length suffix in
  n >= k && List.equal String.equal (drop (n - k) l) suffix

let rec is_prefix ~prefix l =
  match (prefix, l) with
  | [], _ -> true
  | p :: ps, x :: xs -> String.equal p x && is_prefix ~prefix:ps xs
  | _ :: _, [] -> false

let program_file rel =
  List.exists (fun prefix -> Registry.has_prefix ~prefix rel) Registry.program_dirs

(* Whether a use qualified by [quals] in file [rel] names [e]'s module:
   its full path, or inside its own file its nested path. *)
let names e rel quals =
  ends_with ~suffix:e.path quals
  ||
  match e.path with
  | _ :: (_ :: _ as nested) ->
    String.equal rel (Filename.remove_extension e.file ^ ".ml") && ends_with ~suffix:nested quals
  | _ -> false

let run ~impls ~intfs =
  let indexes = Hashtbl.create 256 in
  List.iter
    (fun (rel, st) -> if program_file rel then Hashtbl.replace indexes rel (index ~file:rel st))
    impls;
  let exports = Array.of_list (List.concat_map (fun (file, sg) -> exports file sg) intfs) in
  let used = Array.make (Array.length exports) false in
  (* Exports by the key a qualified use of them carries, and the
     modules they live in: most uses qualify Stdlib modules, which one
     lookup per file and module skips. *)
  let wanted = Hashtbl.create (Array.length exports) and modules = Hashtbl.create 128 in
  Array.iteri
    (fun i e ->
      let m = List.nth e.path (List.length e.path - 1) in
      Hashtbl.replace modules m ();
      Hashtbl.add wanted (m ^ "." ^ e.name) i)
    exports;
  let mark rel quals i = if (not used.(i)) && names exports.(i) rel quals then used.(i) <- true in
  Hashtbl.iter
    (fun rel idx ->
      List.iter
        (fun (m, uses) ->
          if Hashtbl.mem modules m then
            List.iter
              (fun (key, quals) -> List.iter (mark rel quals) (Hashtbl.find_all wanted key))
              uses)
        idx.qualified;
      List.iter (fun w -> Array.iteri (fun i _ -> mark rel w i) exports) idx.whole)
    indexes;
  (* Unqualified uses in the val's own file, its own definition aside. *)
  let used_in_own_file e =
    let nested = List.tl e.path in
    match Hashtbl.find_opt indexes (Filename.remove_extension e.file ^ ".ml") with
    | None -> false
    | Some idx ->
      List.exists
        (fun b ->
          is_prefix ~prefix:nested b.scope
          && not (String.equal b.self e.name && List.equal String.equal b.scope nested))
        (Hashtbl.find_all idx.bare e.name)
  in
  List.filter_map
    (fun (i, e) ->
      if used.(i) || used_in_own_file e then None
      else
        Some
          (Source.finding ~check:id ~file:e.file e.loc
             (Printf.sprintf
                "%s is exported but no program uses it (tests alone do not count): delete it, \
                 or keep it with [@@provlint.allow \"unused-export\"] and a reason"
                (String.concat "." (e.path @ [ e.name ])))))
    (List.mapi (fun i e -> (i, e)) (Array.to_list exports))
