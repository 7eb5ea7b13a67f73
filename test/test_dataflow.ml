(* Dataflow unit suite: must-reach over single function bodies — early
   raise exemption, if/match path splits, loops, and call-through
   descent into wrapper lambdas. *)

module Dataflow = Provkit_lint.Dataflow
module Source = Provkit_lint.Source

(* Parse [src], take the body of its sole toplevel [let], and ask
   whether every terminating path evaluates a call to [bump]. *)
let body_of src =
  match Source.parse_string ~filename:"test/dataflow_fixture.ml" src with
  | Error f -> Alcotest.failf "fixture does not parse: %s" (Provkit_lint.Finding.to_string f)
  | Ok structure -> (
    match List.rev structure with
    | { Parsetree.pstr_desc = Pstr_value (_, [ vb ]); _ } :: _ ->
      Dataflow.strip_params vb.Parsetree.pvb_expr
    | _ -> Alcotest.fail "fixture is not a single let binding")

let is_bump (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    Source.last txt = "bump"
  | _ -> false

let must_reach src = Dataflow.must_reach ~matches:is_bump (body_of src)

let check msg expected src = Alcotest.(check bool) msg expected (must_reach src)

let straight_line () =
  check "sequencing reaches the call" true {|let f t = prepare t; bump t; done_ t|};
  check "no call at all" false {|let f t = prepare t; done_ t|}

let early_raise_exempt () =
  check "failwith branch owes nothing" true
    {|let f t = if broken t then failwith "corrupt" else (fix t; bump t)|};
  check "raise branch owes nothing" true
    {|let f t = match probe t with
      | Error e -> raise (Failure e)
      | Ok v -> consume v; bump t|};
  check "invalid_arg counts as raising" true
    {|let f t = if t < 0 then invalid_arg "f" else bump t|};
  check "domain raising helpers count" true
    {|let f t = if t < 0 then Errors.corrupt "neg" else bump t|}

let if_path_splits () =
  check "both branches bump" true {|let f t = if hot t then bump t else (log t; bump t)|};
  check "one branch misses" false {|let f t = if hot t then bump t else log t|};
  check "if without else misses" false {|let f t = if hot t then bump t|};
  check "bump in the condition still counts" true {|let f t = if bump t then go t else stop t|}

let match_path_splits () =
  check "all cases bump" true
    {|let f t = match t with Some x -> bump x | None -> (init (); bump t)|};
  check "one case misses" false {|let f t = match t with Some x -> bump x | None -> ()|};
  check "bump on the scrutinee counts" true {|let f t = match bump t with _ -> ()|}

let loops_are_may () =
  check "while body may not run" false {|let f t = while pending t do bump t done|};
  check "for body may not run" false {|let f t = for i = 0 to n t do bump t done|};
  check "bump after the loop counts" true
    {|let f t = (while pending t do drain t done); bump t|}

let lambdas () =
  check "plain lambda is deferred, not a path" false
    {|let f t = register (fun () -> bump t)|};
  check "with_span descends into its fun literal" true
    {|let f t = with_span "t" (fun () -> load t; bump t)|};
  check "protect descends too" true {|let f t = protect (fun () -> bump t) cleanup|};
  check "call-through with no bump stays false" false
    {|let f t = with_span "t" (fun () -> load t)|}

let try_uses_body_only () =
  check "bump in the try body counts" true {|let f t = try bump t with Not_found -> ()|};
  check "bump only in the handler does not" false
    {|let f t = try load t with Not_found -> bump t|}

let always_raises_detection () =
  let ar src = Dataflow.always_raises (body_of src) in
  Alcotest.(check bool) "failwith body" true (ar {|let f () = failwith "no"|});
  Alcotest.(check bool) "assert false body" true (ar {|let f () = assert false|});
  Alcotest.(check bool) "seq ending in raise" true (ar {|let f t = log t; raise Exit|});
  Alcotest.(check bool) "match with all-raising cases" true
    (ar {|let f t = match t with A -> failwith "a" | B -> invalid_arg "b"|});
  Alcotest.(check bool) "one returning case" false
    (ar {|let f t = match t with A -> failwith "a" | B -> ()|});
  Alcotest.(check bool) "plain body" false (ar {|let f t = t + 1|})

let suite =
  [
    Alcotest.test_case "straight-line sequencing" `Quick straight_line;
    Alcotest.test_case "raising paths are exempt" `Quick early_raise_exempt;
    Alcotest.test_case "if splits paths" `Quick if_path_splits;
    Alcotest.test_case "match splits paths" `Quick match_path_splits;
    Alcotest.test_case "loop bodies are may, not must" `Quick loops_are_may;
    Alcotest.test_case "lambdas: deferred unless called through" `Quick lambdas;
    Alcotest.test_case "try counts the body only" `Quick try_uses_body_only;
    Alcotest.test_case "always_raises classification" `Quick always_raises_detection;
  ]
