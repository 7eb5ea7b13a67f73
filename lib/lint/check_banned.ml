(* banned-constructs: constructs that undermine the storage and query
   invariants the rest of the tree works to uphold.

   - [Obj.magic] anywhere: defeats the type system the codecs rely on.
   - [Printf.printf] under lib/: library code reports through values
     (or Harness.Report); stdout belongs to the binaries.
   - polymorphic [=]/[<>]/[compare] against a [Value.t]/[Row.t]:
     [Value.Real nan] and cross-constructor comparisons have surprising
     polymorphic semantics — use [Value.compare]/[Value.equal].
   - [try ... with _ ->]: a catch-all swallows Corrupt, Out_of_memory
     and programming errors alike; match the exception you mean. *)

open Parsetree

let id = "banned-constructs"

let is_obj_magic lid =
  match Source.flatten_last2 lid with "Obj", "magic" -> true | _ -> false

let is_printf lid =
  match Source.flatten_last2 lid with "Printf", "printf" -> true | _ -> false

let poly_compare_ops = [ "="; "<>"; "=="; "!="; "compare" ]

let value_constructors = [ "Null"; "Int"; "Real"; "Text"; "Blob"; "Bool" ]

(* Syntactic evidence that an expression is a Value.t or Row.t: a
   Value-qualified constructor, or an explicit type constraint. *)
let value_typed e =
  match e.pexp_desc with
  | Pexp_construct ({ txt = lid; _ }, _) -> begin
    match Source.flatten_last2 lid with
    | "Value", c -> List.mem c value_constructors
    | _ -> false
  end
  | Pexp_constraint (_, { ptyp_desc = Ptyp_constr ({ txt = lid; _ }, _); _ }) -> begin
    match Source.flatten_last2 lid with ("Value" | "Row"), "t" -> true | _ -> false
  end
  | _ -> false

let rec is_wild pat =
  match pat.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias (p, _) | Ppat_constraint (p, _) -> is_wild p
  | Ppat_or (a, b) -> is_wild a || is_wild b
  | _ -> false

let run ~file structure =
  let in_lib = Registry.in_lib file in
  let findings = ref [] in
  let emit loc message = findings := Source.finding ~check:id ~file loc message :: !findings in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = lid; _ } when is_obj_magic lid ->
            emit e.pexp_loc "Obj.magic defeats the type safety the codecs depend on"
          | Pexp_ident { txt = lid; _ } when in_lib && is_printf lid ->
            emit e.pexp_loc
              "Printf.printf in lib/: return values (or use Harness.Report); stdout belongs \
               to the binaries"
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = op; _ }; _ }, args) ->
            let _, op_name = Source.flatten_last2 op in
            if
              List.mem op_name poly_compare_ops
              && List.exists (fun (_, arg) -> value_typed arg) args
            then
              emit e.pexp_loc
                (Printf.sprintf
                   "polymorphic %s on Value.t/Row.t: use Value.compare or Value.equal"
                   op_name)
          | Pexp_try (_, cases) ->
            List.iter
              (fun case ->
                match case.pc_lhs.ppat_desc with
                | Ppat_exception _ -> ()
                | _ ->
                  if is_wild case.pc_lhs then
                    emit case.pc_lhs.ppat_loc
                      "catch-all exception handler swallows corruption and programming \
                       errors alike: match the exceptions you expect")
              cases
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  !findings
