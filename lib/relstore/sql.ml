exception Parse_error of string

let parse_error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                                *)
(* ------------------------------------------------------------------ *)

type token =
  | Tident of string  (* identifier or keyword, original case preserved *)
  | Tint of int
  | Tfloat of float
  | Tstring of string
  | Tsym of string  (* punctuation and operators *)
  | Teof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let lex input =
  let n = String.length input in
  let tokens = ref [] in
  let emit t = tokens := t :: !tokens in
  let i = ref 0 in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\'' then begin
      (* string literal with '' escaping *)
      let buf = Buffer.create 16 in
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if input.[!i] = '\'' then
          if !i + 1 < n && input.[!i + 1] = '\'' then begin
            Buffer.add_char buf '\'';
            i := !i + 2
          end
          else begin
            closed := true;
            incr i
          end
        else begin
          Buffer.add_char buf input.[!i];
          incr i
        end
      done;
      if not !closed then parse_error "unterminated string literal";
      emit (Tstring (Buffer.contents buf))
    end
    else if (c >= '0' && c <= '9') || (c = '-' && !i + 1 < n && input.[!i + 1] >= '0' && input.[!i + 1] <= '9')
    then begin
      let start = !i in
      if c = '-' then incr i;
      let is_float = ref false in
      while
        !i < n
        && ((input.[!i] >= '0' && input.[!i] <= '9')
           || input.[!i] = '.'
           || input.[!i] = 'e' || input.[!i] = 'E'
           || ((input.[!i] = '-' || input.[!i] = '+') && (input.[!i - 1] = 'e' || input.[!i - 1] = 'E')))
      do
        if input.[!i] = '.' || input.[!i] = 'e' || input.[!i] = 'E' then is_float := true;
        incr i
      done;
      let text = String.sub input start (!i - start) in
      if !is_float then
        emit
          (Tfloat
             (match float_of_string_opt text with
             | Some f -> f
             | None -> parse_error "bad number %S" text))
      else
        emit
          (Tint
             (match int_of_string_opt text with
             | Some n -> n
             | None -> parse_error "bad number %S" text))
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] do
        incr i
      done;
      emit (Tident (String.sub input start (!i - start)))
    end
    else begin
      let two = if !i + 1 < n then String.sub input !i 2 else "" in
      match two with
      | "<=" | ">=" | "<>" | "!=" ->
        emit (Tsym two);
        i := !i + 2
      | _ -> begin
        match c with
        | '=' | '<' | '>' | '(' | ')' | ',' | '*' ->
          emit (Tsym (String.make 1 c));
          incr i
        | _ -> parse_error "unexpected character %C" c
      end
    end
  done;
  List.rev (Teof :: !tokens)

(* ------------------------------------------------------------------ *)
(* Parser                                                               *)
(* ------------------------------------------------------------------ *)

type aggregate = Count_star | Sum of string | Avg of string | Min of string | Max of string

type ast = {
  projection : [ `All | `Aggregate of aggregate | `Columns of string list ];
  table : string;
  where : Predicate.t;
  group_by : string option;
  order_by : Query_exec.order list;
  limit : int option;
}

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> Teof | t :: _ -> t
let advance st = match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let keyword_is t kw =
  match t with Tident s -> String.uppercase_ascii s = kw | _ -> false

let expect_keyword st kw =
  if keyword_is (peek st) kw then advance st
  else parse_error "expected %s" kw

let expect_sym st sym =
  match peek st with
  | Tsym s when s = sym -> advance st
  | _ -> parse_error "expected %S" sym

let parse_ident st =
  match peek st with
  | Tident s -> begin
    advance st;
    s
  end
  | _ -> parse_error "expected identifier"

let parse_literal st : Value.t =
  match peek st with
  | Tint n ->
    advance st;
    Value.Int n
  | Tfloat f ->
    advance st;
    Value.Real f
  | Tstring s ->
    advance st;
    Value.Text s
  | Tident s when String.uppercase_ascii s = "TRUE" ->
    advance st;
    Value.Bool true
  | Tident s when String.uppercase_ascii s = "FALSE" ->
    advance st;
    Value.Bool false
  | Tident s when String.uppercase_ascii s = "NULL" ->
    advance st;
    Value.Null
  | _ -> parse_error "expected a literal"

(* atom := col op lit | col IS [NOT] NULL | col LIKE 'x' | col BETWEEN a AND b *)
let rec parse_atom st =
  match peek st with
  | Tsym "(" ->
    advance st;
    let p = parse_or st in
    expect_sym st ")";
    p
  | Tident s when String.uppercase_ascii s = "NOT" ->
    advance st;
    Predicate.Not (parse_atom st)
  | _ -> begin
    let col = parse_ident st in
    match peek st with
    | Tsym "=" ->
      advance st;
      Predicate.Eq (col, parse_literal st)
    | Tsym ("<>" | "!=") ->
      advance st;
      Predicate.Cmp (Predicate.Ne, col, parse_literal st)
    | Tsym "<" ->
      advance st;
      Predicate.Cmp (Predicate.Lt, col, parse_literal st)
    | Tsym "<=" ->
      advance st;
      Predicate.Cmp (Predicate.Le, col, parse_literal st)
    | Tsym ">" ->
      advance st;
      Predicate.Cmp (Predicate.Gt, col, parse_literal st)
    | Tsym ">=" ->
      advance st;
      Predicate.Cmp (Predicate.Ge, col, parse_literal st)
    | t when keyword_is t "IS" -> begin
      advance st;
      if keyword_is (peek st) "NOT" then begin
        advance st;
        expect_keyword st "NULL";
        Predicate.Not_null col
      end
      else begin
        expect_keyword st "NULL";
        Predicate.Is_null col
      end
    end
    | t when keyword_is t "LIKE" -> begin
      advance st;
      match peek st with
      | Tstring s ->
        advance st;
        Predicate.Like (col, s)
      | _ -> parse_error "LIKE expects a string literal"
    end
    | t when keyword_is t "BETWEEN" ->
      advance st;
      let lo = parse_literal st in
      expect_keyword st "AND";
      let hi = parse_literal st in
      Predicate.Between (col, lo, hi)
    | _ -> parse_error "expected an operator after column %s" col
  end

and parse_and st =
  let left = parse_atom st in
  if keyword_is (peek st) "AND" then begin
    advance st;
    match parse_and st with
    | Predicate.And ps -> Predicate.And (left :: ps)
    | right -> Predicate.And [ left; right ]
  end
  else left

and parse_or st =
  let left = parse_and st in
  if keyword_is (peek st) "OR" then begin
    advance st;
    match parse_or st with
    | Predicate.Or ps -> Predicate.Or (left :: ps)
    | right -> Predicate.Or [ left; right ]
  end
  else left

(* One projection item: '*', an aggregate call, or a column. *)
let parse_projection_item st =
  match peek st with
  | Tsym "*" ->
    advance st;
    `Star
  | Tident s when List.mem (String.uppercase_ascii s) [ "COUNT"; "SUM"; "AVG"; "MIN"; "MAX" ]
    -> begin
    let fn = String.uppercase_ascii s in
    advance st;
    expect_sym st "(";
    let agg =
      if fn = "COUNT" then begin
        expect_sym st "*";
        Count_star
      end
      else begin
        let col = parse_ident st in
        match fn with
        | "SUM" -> Sum col
        | "AVG" -> Avg col
        | "MIN" -> Min col
        | _ -> Max col
      end
    in
    expect_sym st ")";
    `Agg agg
  end
  | _ -> `Col (parse_ident st)

let parse_projection_items st =
  let rec items acc =
    let item = parse_projection_item st in
    match peek st with
    | Tsym "," ->
      advance st;
      items (item :: acc)
    | _ -> List.rev (item :: acc)
  in
  items []

let parse_order_by st =
  let rec specs acc =
    let col = parse_ident st in
    let spec =
      if keyword_is (peek st) "DESC" then begin
        advance st;
        Query_exec.Desc col
      end
      else begin
        if keyword_is (peek st) "ASC" then advance st;
        Query_exec.Asc col
      end
    in
    match peek st with
    | Tsym "," ->
      advance st;
      specs (spec :: acc)
    | _ -> List.rev (spec :: acc)
  in
  specs []

let parse input =
  let st = { toks = lex input } in
  expect_keyword st "SELECT";
  let items = parse_projection_items st in
  expect_keyword st "FROM";
  let table = parse_ident st in
  let where =
    if keyword_is (peek st) "WHERE" then begin
      advance st;
      parse_or st
    end
    else Predicate.True
  in
  let group_by =
    if keyword_is (peek st) "GROUP" then begin
      advance st;
      expect_keyword st "BY";
      Some (parse_ident st)
    end
    else None
  in
  let order_by =
    if keyword_is (peek st) "ORDER" then begin
      advance st;
      expect_keyword st "BY";
      parse_order_by st
    end
    else []
  in
  let limit =
    if keyword_is (peek st) "LIMIT" then begin
      advance st;
      match peek st with
      | Tint n ->
        advance st;
        Some n
      | _ -> parse_error "LIMIT expects an integer"
    end
    else None
  in
  (match peek st with
  | Teof -> ()
  | _ -> parse_error "trailing input after query");
  (* Normalize the projection items against the grammar. *)
  let projection =
    match (items, group_by) with
    | [ `Star ], None -> `All
    | [ `Agg a ], None -> `Aggregate a
    | [ `Col g; `Agg Count_star ], Some group when g = group -> `Columns [ g ]
    | items, None
      when List.for_all (function `Col _ -> true | _ -> false) items ->
      `Columns (List.map (function `Col c -> c | _ -> assert false) items)
    | _, Some _ ->
      parse_error "GROUP BY requires: SELECT <group-col>, COUNT( * ) ... GROUP BY <group-col>"
    | _, None -> parse_error "aggregates cannot be mixed with plain columns"
  in
  if group_by <> None && order_by <> [] then
    parse_error "ORDER BY is not supported with GROUP BY (groups sort by count)";
  { projection; table; where; group_by; order_by; limit }

(* ------------------------------------------------------------------ *)
(* Execution                                                            *)
(* ------------------------------------------------------------------ *)

type result = { columns : string list; rows : Value.t list list }

(* Validate referenced columns up front for decent error messages. *)
let validate db ast =
  let table = Database.table db ast.table in
  let schema = Table.schema table in
  let check col = ignore (Schema.column_index schema col) in
  let rec check_pred = function
    | Predicate.True -> ()
    | Predicate.Eq (c, _)
    | Predicate.Cmp (_, c, _)
    | Predicate.Between (c, _, _)
    | Predicate.Is_null c
    | Predicate.Not_null c
    | Predicate.Like (c, _) -> check c
    | Predicate.And ps | Predicate.Or ps -> List.iter check_pred ps
    | Predicate.Not p -> check_pred p
    | Predicate.Custom _ -> ()
  in
  check_pred ast.where;
  List.iter
    (fun spec ->
      match spec with Query_exec.Asc c | Query_exec.Desc c -> check c)
    ast.order_by;
  (match ast.group_by with None -> () | Some g -> check g);
  (match ast.projection with
  | `All -> ()
  | `Columns cols -> List.iter check cols
  | `Aggregate (Sum c | Avg c | Min c | Max c) -> check c
  | `Aggregate Count_star -> ())

(* The one dispatch from a parsed query to the executor, at any level:
   [Stats] for EXPLAIN, [Profile] for EXPLAIN ANALYZE.  Result shaping
   (projection, aggregate folds, the GROUP BY limit) runs outside the
   executor, so a profile root covers the executor work only — which is
   what the rendered latency reports. *)
let execute_at level db ast =
  let table = Database.table db ast.table in
  let schema = Table.schema table in
  validate db ast;
  match (ast.group_by, ast.projection) with
  | Some group, _ ->
    let groups, inst = Query_exec.group_count_at level ~by:group ~where:ast.where table in
    let groups =
      match ast.limit with
      | None -> groups
      | Some n -> List.filteri (fun i _ -> i < n) groups
    in
    ( {
        columns = [ group; "count" ];
        rows = List.map (fun (v, n) -> [ v; Value.Int n ]) groups;
      },
      inst )
  | None, `Aggregate Count_star ->
    let n, inst = Query_exec.count_at level ~where:ast.where table in
    ({ columns = [ "count" ]; rows = [ [ Value.Int n ] ] }, inst)
  | None, `Aggregate agg ->
    let col =
      match agg with
      | Sum c | Avg c | Min c | Max c -> c
      | Count_star -> assert false
    in
    let hits, inst = Query_exec.select_at level ~where:ast.where table in
    let cells =
      List.filter_map
        (fun (_, row) ->
          let v = Row.get schema row col in
          if Value.is_null v then None else Some v)
        hits
    in
    let name, value =
      match agg with
      | Sum _ ->
        ("sum", Value.Real (List.fold_left (fun acc v -> acc +. Value.to_real v) 0.0 cells))
      | Avg _ ->
        ( "avg",
          if cells = [] then Value.Null
          else
            Value.Real
              (List.fold_left (fun acc v -> acc +. Value.to_real v) 0.0 cells
              /. float_of_int (List.length cells)) )
      | Min _ ->
        ("min", match cells with [] -> Value.Null | v :: r -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) v r)
      | Max _ ->
        ("max", match cells with [] -> Value.Null | v :: r -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) v r)
      | Count_star -> assert false
    in
    ({ columns = [ name ]; rows = [ [ value ] ] }, inst)
  | None, ((`All | `Columns _) as projection) ->
    let hits, inst =
      Query_exec.select_at level ~where:ast.where ~order_by:ast.order_by ?limit:ast.limit table
    in
    let columns =
      match projection with
      | `All ->
        "rowid" :: Array.to_list (Array.map (fun (c : Column.t) -> c.Column.name) (Schema.columns schema))
      | `Columns cols -> cols
    in
    let project (rowid, row) =
      match projection with
      | `All -> Value.Int rowid :: Array.to_list row
      | `Columns cols -> List.map (fun c -> Row.get schema row c) cols
    in
    ({ columns; rows = List.map project hits }, inst)

let execute db ast = fst (execute_at Query_exec.Stats db ast)
let query db input = execute db (parse input)

let render result =
  let cell = function
    | Value.Text s -> s
    | v -> Value.to_string v
  in
  Provkit_util.Table_fmt.render ~header:result.columns
    (List.map (fun row -> List.map cell row) result.rows)

let plan_to_string = function
  | Query_exec.Full_scan -> "full scan"
  | Query_exec.Index_eq name -> Printf.sprintf "index %s (eq)" name
  | Query_exec.Index_range name -> Printf.sprintf "index %s (range)" name

let explain db input =
  let ast = parse input in
  let table = Database.table db ast.table in
  plan_to_string (Query_exec.plan_for table ast.where)

type explain_report = {
  table : string;
  plan : Query_exec.plan;
  estimated_rows : int;
  est_from_stats : bool;
  stats : Query_exec.exec_stats;
}

let explain_query db input =
  let ast = parse input in
  let table = Database.table db ast.table in
  let detail = Query_exec.plan_detail table ast.where in
  let _, stats = execute_at Query_exec.Stats db ast in
  { table = ast.table; plan = stats.Query_exec.plan;
    estimated_rows = detail.Query_exec.estimated_rows;
    est_from_stats = detail.Query_exec.est_from_stats; stats }

let est_source from_stats = if from_stats then "statistics catalog" else "heuristic"

let render_explain r =
  let s = r.stats in
  String.concat "\n"
    [
      Printf.sprintf "table:          %s" r.table;
      Printf.sprintf "plan:           %s" (plan_to_string r.plan);
      Printf.sprintf "estimated rows: %d (%s)" r.estimated_rows (est_source r.est_from_stats);
      Printf.sprintf "rows scanned:   %d" s.Query_exec.rows_scanned;
      Printf.sprintf "rows returned:  %d" s.Query_exec.rows_returned;
      Printf.sprintf "latency:        %.3f ms"
        (float_of_int s.Query_exec.elapsed_ns /. 1e6);
    ]

(* --- EXPLAIN ANALYZE ------------------------------------------------ *)

type analyze_report = {
  a_table : string;
  a_plan : Query_exec.plan;
  a_estimated_rows : int;
  a_est_from_stats : bool;
  a_stats : Query_exec.exec_stats;
  a_profile : Query_exec.profile;
}

let analyze_query db input =
  let ast = parse input in
  let table = Database.table db ast.table in
  (* EXPLAIN ANALYZE is the opt-in to estimated-vs-actual reporting:
     make sure the catalog can actually estimate by analyzing the table
     when its entry is missing or stale. *)
  if Option.is_none (Stats.fresh table) then ignore (Stats.analyze table);
  let detail = Query_exec.plan_detail table ast.where in
  let _, (stats, profile) = execute_at Query_exec.Profile db ast in
  {
    a_table = ast.table;
    a_plan = stats.Query_exec.plan;
    a_estimated_rows = detail.Query_exec.estimated_rows;
    a_est_from_stats = detail.Query_exec.est_from_stats;
    a_stats = stats;
    a_profile = profile;
  }

(* actual/estimated mismatch factor, >= 1, on the returned-row count. *)
let estimate_error r =
  let est = Float.max 1.0 (float_of_int r.a_estimated_rows) in
  let act = Float.max 1.0 (float_of_int r.a_stats.Query_exec.rows_returned) in
  Float.max (act /. est) (est /. act)

let render_analyze r =
  (* The reported latency is the profile root's interval — the same
     clock the per-operator rows tile — so the column of percentages is
     exact against the line above it. *)
  String.concat "\n"
    [
      Printf.sprintf "table:          %s" r.a_table;
      Printf.sprintf "plan:           %s" (plan_to_string r.a_plan);
      Printf.sprintf "estimated rows: %d (%s)" r.a_estimated_rows
        (est_source r.a_est_from_stats);
      Printf.sprintf "rows scanned:   %d" r.a_stats.Query_exec.rows_scanned;
      Printf.sprintf "rows returned:  %d (estimate off by %.1fx)"
        r.a_stats.Query_exec.rows_returned (estimate_error r);
      Printf.sprintf "latency:        %.3f ms"
        (float_of_int r.a_profile.Query_exec.dur_ns /. 1e6);
      "";
      Query_exec.render_profile r.a_profile;
    ]

let analyze_to_json r =
  Printf.sprintf
    "{\"table\":\"%s\",\"plan\":\"%s\",\"estimated_rows\":%d,\"est_from_stats\":%b,\"rows_scanned\":%d,\"rows_returned\":%d,\"profile\":%s}"
    (Provkit_obs.Metrics.json_escape r.a_table)
    (Provkit_obs.Metrics.json_escape (plan_to_string r.a_plan))
    r.a_estimated_rows r.a_est_from_stats r.a_stats.Query_exec.rows_scanned
    r.a_stats.Query_exec.rows_returned
    (Query_exec.profile_to_json r.a_profile)
