(* Parsing front end: turn a source file into a Parsetree.structure
   using the compiler's own parser, so every check sees exactly what the
   compiler sees (comments and formatting invisible, attributes kept). *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let finding ~check ?severity ~file (loc : Location.t) message =
  Finding.v ~check ?severity ~file ~line:(line_of loc) ~col:(col_of loc) message

(* A long identifier's last component, and its last two as
   (qualifier, name); a missing qualifier is [""]. *)
let last lid = match List.rev (Longident.flatten lid) with x :: _ -> x | [] -> ""

let flatten_last2 lid =
  match List.rev (Longident.flatten lid) with
  | name :: m :: _ -> (m, name)
  | [ name ] -> ("", name)
  | [] -> ("", "")

(* [parse] is [Parse.implementation] or [Parse.interface]; a syntax or
   lexical error becomes a [parse-error] finding at its position. *)
let parse_uncached parse ~filename source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf filename;
  match parse lexbuf with
  | tree -> Ok tree
  | exception Syntaxerr.Error _ ->
    let p = lexbuf.Lexing.lex_curr_p in
    Error
      (Finding.v ~check:"parse-error" ~file:filename ~line:p.Lexing.pos_lnum
         ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol)
         "syntax error")
  | exception Lexer.Error (_, loc) ->
    Error (finding ~check:"parse-error" ~file:filename loc "lexical error")

(* Parse-once caches: one tree per (filename, contents), shared by every
   check in a run — and across runs inside one process (the fixture
   tests and the bench loop re-lint the same sources).  The stored
   source string guards against a file changing between runs. *)
let memo cache parse ~filename source =
  match Hashtbl.find_opt cache filename with
  | Some (cached_src, res) when String.equal cached_src source -> res
  | _ ->
    let res = parse_uncached parse ~filename source in
    Hashtbl.replace cache filename (source, res);
    res

let parse_cache : (string, string * (Parsetree.structure, Finding.t) result) Hashtbl.t =
  Hashtbl.create 64

let intf_cache : (string, string * (Parsetree.signature, Finding.t) result) Hashtbl.t =
  Hashtbl.create 64

let clear_caches () =
  Hashtbl.reset parse_cache;
  Hashtbl.reset intf_cache

let parse_string ~filename source = memo parse_cache Parse.implementation ~filename source
let parse_interface ~filename source = memo intf_cache Parse.interface ~filename source
