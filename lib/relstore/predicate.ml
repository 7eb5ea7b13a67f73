type cmp = Lt | Le | Gt | Ge | Ne

type t =
  | True
  | Eq of string * Value.t
  | Cmp of cmp * string * Value.t
  | Between of string * Value.t * Value.t
  | Is_null of string
  | Not_null of string
  | Like of string * string
  | And of t list
  | Or of t list
  | Not of t
  | Custom of string * (Schema.t -> Row.t -> bool)

let rec eval t schema row =
  match t with
  | True -> true
  | Eq (col, v) -> Value.equal (Row.get schema row col) v
  | Cmp (op, col, v) ->
    let cell = Row.get schema row col in
    if Value.is_null cell then false
    else begin
      let c = Value.compare cell v in
      match op with
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | Ne -> c <> 0
    end
  | Between (col, lo, hi) ->
    let cell = Row.get schema row col in
    (not (Value.is_null cell))
    && Value.compare cell lo >= 0
    && Value.compare cell hi <= 0
  | Is_null col -> Value.is_null (Row.get schema row col)
  | Not_null col -> not (Value.is_null (Row.get schema row col))
  | Like (col, needle) -> begin
    match Row.get schema row col with
    | Value.Text s ->
      Provkit_util.Strutil.contains_substring
        ~needle:(String.lowercase_ascii needle)
        (String.lowercase_ascii s)
    | _ -> false
  end
  | And ps -> List.for_all (fun p -> eval p schema row) ps
  | Or ps -> List.exists (fun p -> eval p schema row) ps
  | Not p -> not (eval p schema row)
  | Custom (_, f) -> f schema row

(* [eval] with every column name resolved to a position once, up front:
   the per-row closure does array reads only.  An unknown column raises
   when a row is tested, as [eval] does, not at compile time. *)
let rec compile t schema =
  let at col k =
    match Schema.column_index schema col with
    | pos -> k pos
    | exception e -> fun _ -> raise e
  in
  match t with
  | True -> fun _ -> true
  | Eq (col, v) -> at col (fun pos row -> Value.equal row.(pos) v)
  | Cmp (op, col, v) ->
    let holds =
      match op with
      | Lt -> fun c -> c < 0
      | Le -> fun c -> c <= 0
      | Gt -> fun c -> c > 0
      | Ge -> fun c -> c >= 0
      | Ne -> fun c -> c <> 0
    in
    at col (fun pos row ->
        let cell = row.(pos) in
        (not (Value.is_null cell)) && holds (Value.compare cell v))
  | Between (col, lo, hi) ->
    at col (fun pos row ->
        let cell = row.(pos) in
        (not (Value.is_null cell)) && Value.compare cell lo >= 0 && Value.compare cell hi <= 0)
  | Is_null col -> at col (fun pos row -> Value.is_null row.(pos))
  | Not_null col -> at col (fun pos row -> not (Value.is_null row.(pos)))
  | Like (col, needle) ->
    let needle = String.lowercase_ascii needle in
    at col (fun pos row ->
        match row.(pos) with
        | Value.Text s ->
          Provkit_util.Strutil.contains_substring ~needle (String.lowercase_ascii s)
        | _ -> false)
  | And ps ->
    let tests = List.map (fun p -> compile p schema) ps in
    fun row -> List.for_all (fun test -> test row) tests
  | Or ps ->
    let tests = List.map (fun p -> compile p schema) ps in
    fun row -> List.exists (fun test -> test row) tests
  | Not p ->
    let test = compile p schema in
    fun row -> not (test row)
  | Custom (_, f) -> f schema

let rec conjunctive_eqs = function
  | Eq (col, v) -> [ (col, v) ]
  | And ps -> List.concat_map conjunctive_eqs ps
  | _ -> []

(* Every top-level range constraint, in pre-order.  A bound is the
   boundary value plus whether the boundary itself matches: Le/Ge and
   Between carry inclusive bounds, Lt/Gt exclusive ones. *)
let rec range_constraints acc = function
  | Between (col, lo, hi) -> (col, Some (lo, true), Some (hi, true)) :: acc
  | Cmp (Le, col, v) -> (col, None, Some (v, true)) :: acc
  | Cmp (Lt, col, v) -> (col, None, Some (v, false)) :: acc
  | Cmp (Ge, col, v) -> (col, Some (v, true), None) :: acc
  | Cmp (Gt, col, v) -> (col, Some (v, false), None) :: acc
  | And ps -> List.fold_left range_constraints acc ps
  | _ -> acc

(* On equal boundary values the exclusive bound is the tighter one:
   [x >= v AND x > v] admits exactly what [x > v] does. *)
let tighter_lo a b =
  match (a, b) with
  | None, b -> b
  | a, None -> a
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c > 0 then a else if c < 0 then b else Some (va, ia && ib)

let tighter_hi a b =
  match (a, b) with
  | None, b -> b
  | a, None -> a
  | Some (va, ia), Some (vb, ib) ->
    let c = Value.compare va vb in
    if c < 0 then a else if c > 0 then b else Some (va, ia && ib)

let conjunctive_range p =
  match List.rev (range_constraints [] p) with
  | [] -> None
  | (col, _, _) :: _ as constraints ->
    (* The first constrained column wins (matching the historical
       planner choice); every bound on that column is merged down to
       the tightest pair, so [ts >= a AND ts <= b] becomes one closed
       interval instead of the lower bound alone. *)
    let lo, hi =
      List.fold_left
        (fun (lo, hi) (c, l, h) ->
          if String.equal c col then (tighter_lo lo l, tighter_hi hi h) else (lo, hi))
        (None, None) constraints
    in
    Some (col, lo, hi)

(* A predicate is its own cache key, compared structurally, unless a
   [Custom] closure anywhere in the tree hides its behaviour. *)
let rec cacheable = function
  | Custom _ -> false
  | And ps | Or ps -> List.for_all cacheable ps
  | Not p -> cacheable p
  | True | Eq _ | Cmp _ | Between _ | Is_null _ | Not_null _ | Like _ -> true

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "TRUE"
  | Eq (c, v) -> Format.fprintf ppf "%s = %a" c Value.pp v
  | Cmp (op, c, v) ->
    let sym = match op with Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Ne -> "<>" in
    Format.fprintf ppf "%s %s %a" c sym Value.pp v
  | Between (c, lo, hi) ->
    Format.fprintf ppf "%s BETWEEN %a AND %a" c Value.pp lo Value.pp hi
  | Is_null c -> Format.fprintf ppf "%s IS NULL" c
  | Not_null c -> Format.fprintf ppf "%s IS NOT NULL" c
  | Like (c, s) -> Format.fprintf ppf "%s LIKE %%%s%%" c s
  | And ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " AND ") pp)
      ps
  | Or ps ->
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " OR ") pp)
      ps
  | Not p -> Format.fprintf ppf "NOT %a" pp p
  | Custom (label, _) -> Format.fprintf ppf "<custom:%s>" label
