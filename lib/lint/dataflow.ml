(* Intraprocedural "must-reach" dataflow: does every terminating path
   through an expression evaluate a subexpression the matcher accepts?
   Paths that provably raise are exempt — an insert that bails out with
   [Errors.constraint_violation] before touching the table owes nobody
   an epoch bump.  The analysis is deliberately conservative in the
   other direction: loop bodies and closures *may* run, so nothing
   inside them satisfies a must-obligation — except the function
   literals handed to a registered call-through combinator
   ([with_span], [protect], [time]), which execute synchronously. *)

open Parsetree

(* Strip the parameter prefix of a binding's right-hand side down to the
   body the function actually runs. *)
let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | Pexp_constraint (body, _) -> strip_params body
  | _ -> e

let is_raising_name name = List.mem name Registry.raising_names

(* Does evaluating [e] always end in an exception? *)
let rec always_raises e =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    is_raising_name (Source.last txt)
  | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
    ->
    true
  | Pexp_sequence (a, b) -> always_raises a || always_raises b
  | Pexp_let (_, vbs, body) ->
    List.exists (fun vb -> always_raises vb.pvb_expr) vbs || always_raises body
  | Pexp_ifthenelse (c, t, Some f) ->
    always_raises c || (always_raises t && always_raises f)
  | Pexp_ifthenelse (c, _, None) -> always_raises c
  | Pexp_match (scrut, cases) ->
    always_raises scrut || List.for_all (fun c -> always_raises c.pc_rhs) cases
  | Pexp_constraint (e, _) | Pexp_open (_, e) -> always_raises e
  | _ -> false

let is_call_through head =
  match head.pexp_desc with
  | Pexp_ident { txt; _ } -> List.mem (Source.last txt) Registry.call_through_names
  | _ -> false

let rec is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | Pexp_constraint (e, _) -> is_fun_literal e
  | _ -> false

let must_reach ~matches expr =
  let rec mr e =
    if matches e then true
    else begin
      match e.pexp_desc with
      | Pexp_sequence (a, b) -> mr a || mr b
      | Pexp_let (_, vbs, body) -> List.exists (fun vb -> mr vb.pvb_expr) vbs || mr body
      | Pexp_ifthenelse (c, t, Some f) ->
        mr c || ((always_raises t || mr t) && (always_raises f || mr f))
      | Pexp_ifthenelse (c, _, None) -> mr c
      | Pexp_match (scrut, cases) ->
        mr scrut || List.for_all (fun c -> always_raises c.pc_rhs || mr c.pc_rhs) cases
      | Pexp_try (body, _) ->
        (* The non-exceptional path runs [body] to completion; matches on
           the exceptional path prove nothing, so handlers are ignored. *)
        mr body
      | Pexp_apply (head, args) ->
        List.exists (fun (_, a) -> mr a) args
        || mr head
        || (is_call_through head
           && List.exists (fun (_, a) -> is_fun_literal a && mr (strip_params a)) args)
      | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ ->
        false (* may never run; only call-through descends *)
      | Pexp_while (c, _) -> mr c (* body may run zero times *)
      | Pexp_for (_, lo, hi, _, _) -> mr lo || mr hi
      | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> mr e
      | Pexp_tuple es | Pexp_array es -> List.exists mr es
      | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> mr e
      | Pexp_record (fields, base) ->
        List.exists (fun (_, e) -> mr e) fields
        || (match base with Some b -> mr b | None -> false)
      | Pexp_field (e, _) -> mr e
      | Pexp_setfield (a, _, b) -> mr a || mr b
      | Pexp_assert e -> mr e
      | Pexp_letmodule (_, _, e) | Pexp_letexception (_, e) -> mr e
      | _ -> false
    end
  in
  mr expr
