(* Per-site suppression: [@provlint.allow "check-id"] on an expression,
   pattern or let binding silences that check inside the annotated node;
   with no payload it silences every check there.  A floating
   [@@@provlint.allow "check-id"] silences the whole file.  Suppressions
   are collected as line spans and applied after the checks run, so
   checks stay oblivious to them. *)

open Parsetree

type span = { check : string option; start_line : int; end_line : int }

let attr_name = "provlint.allow"

let payload_checks = function
  | PStr [] -> [ None ]
  | PStr [ { pstr_desc = Pstr_eval (e, _); _ } ] -> begin
    match e.pexp_desc with
    | Pexp_constant (Pconst_string (s, _, _)) -> [ Some s ]
    | Pexp_tuple parts ->
      List.filter_map
        (fun p ->
          match p.pexp_desc with
          | Pexp_constant (Pconst_string (s, _, _)) -> Some (Some s)
          | _ -> None)
        parts
    | _ -> []
  end
  | _ -> []

let spans_of_attrs attrs (loc : Location.t) acc =
  List.fold_left
    (fun acc attr ->
      if attr.attr_name.txt <> attr_name then acc
      else
        List.fold_left
          (fun acc check ->
            { check; start_line = loc.loc_start.pos_lnum; end_line = loc.loc_end.pos_lnum }
            :: acc)
          acc
          (payload_checks attr.attr_payload))
    acc attrs

(* A floating [@@@provlint.allow] covers the whole file. *)
let whole_file attr acc =
  List.fold_left
    (fun acc check -> { check; start_line = 1; end_line = max_int } :: acc)
    acc
    (payload_checks attr.attr_payload)

let collect structure =
  let spans = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          spans := spans_of_attrs e.pexp_attributes e.pexp_loc !spans;
          Ast_iterator.default_iterator.expr it e);
      pat =
        (fun it p ->
          spans := spans_of_attrs p.ppat_attributes p.ppat_loc !spans;
          Ast_iterator.default_iterator.pat it p);
      value_binding =
        (fun it vb ->
          spans := spans_of_attrs vb.pvb_attributes vb.pvb_loc !spans;
          Ast_iterator.default_iterator.value_binding it vb);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_attribute attr when attr.attr_name.txt = attr_name ->
            spans := whole_file attr !spans
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it item);
    }
  in
  it.structure it structure;
  !spans

(* The same for an interface: [[@@provlint.allow]] on a [val] covers
   that declaration, a floating one covers the whole file. *)
let collect_signature signature =
  let spans = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_description =
        (fun it vd ->
          spans := spans_of_attrs vd.pval_attributes vd.pval_loc !spans;
          Ast_iterator.default_iterator.value_description it vd);
      signature_item =
        (fun it item ->
          (match item.psig_desc with
          | Psig_attribute attr when attr.attr_name.txt = attr_name ->
            spans := whole_file attr !spans
          | _ -> ());
          Ast_iterator.default_iterator.signature_item it item);
    }
  in
  it.signature it signature;
  !spans

let suppressed spans (f : Finding.t) =
  List.exists
    (fun s ->
      f.Finding.line >= s.start_line
      && f.Finding.line <= s.end_line
      && match s.check with None -> true | Some c -> c = f.Finding.check)
    spans
