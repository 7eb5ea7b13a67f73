(* wal-durability: the segmented WAL's group-commit contract, checked
   statically over [Prov_log.Segmented] (lib/core/prov_log.ml):

   1. every path that records an append (increments the pending-ops /
      pending-bytes counters) must also reach a commit point — a direct
      sink flush, or a call that (transitively) flushes, like
      [maybe_commit] / [flush_pending];
   2. any function that closes the active sink (rotate / compact /
      close) must flush pending appends first — otherwise buffered
      group-commit records die with the file descriptor;
   3. no sink write or flush on the active segment after it was closed,
      unless a fresh segment was started in between.

   Scoped to functions inside the [Segmented] module so the in-memory
   journal helpers at the top of the file (which share names like
   [compact]) are not conscripted into WAL rules.  Rules 1–2 use
   must-reach (order-insensitive, raising paths exempt); rule 3 is a
   branch-sensitive linear scan in evaluation order. *)

open Parsetree

let id = "wal-durability"

let applies ~file = file = Registry.wal_file

let is_sink_op names lid =
  let m, name = Source.flatten_last2 lid in
  List.mem m Registry.wal_sink_modules && List.mem name names

let rec unconstrain e =
  match e.pexp_desc with Pexp_constraint (e, _) -> unconstrain e | _ -> e

(* Is this argument the handle's active sink ([h.active])? *)
let is_active_arg arg =
  match (unconstrain arg).pexp_desc with
  | Pexp_field (_, { txt; _ }) -> Source.last txt = Registry.wal_active_field
  | _ -> false

(* may-reach: does [expr] contain a subexpression the predicate accepts
   anywhere (closures included)? *)
let contains pred expr =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          if pred e then found := true;
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it expr;
  !found

let is_zero e =
  match (unconstrain e).pexp_desc with
  | Pexp_constant (Pconst_integer ("0", _)) -> true
  | _ -> false

(* A pending-counter increment (resets to literal 0 are the commit side
   of the protocol, not new debt). *)
let is_pending_increment e =
  match e.pexp_desc with
  | Pexp_setfield (_, { txt; _ }, rhs) ->
    List.mem (Source.last txt) Registry.wal_pending_fields && not (is_zero rhs)
  | _ -> false

let is_active_assign e =
  match e.pexp_desc with
  | Pexp_setfield (_, { txt; _ }, _) -> Source.last txt = Registry.wal_active_field
  | _ -> false

let run ~file structure =
  if not (applies ~file) then []
  else begin
    let graph = Callgraph.build [ (file, structure) ] in
    let seg_fns =
      List.filter
        (fun (f : Callgraph.fn) -> List.mem Registry.wal_module f.Callgraph.fn_path)
        (Callgraph.file_fns graph file)
    in
    let findings = ref [] in
    let emit (f : Callgraph.fn) msg =
      findings :=
        Finding.v ~check:id ~file ~line:f.Callgraph.fn_line ~col:0
          (Printf.sprintf "%s %s" f.Callgraph.fn_name msg)
        :: !findings
    in
    (* Fixpoint of a "contains a member call" closure over [seed]. *)
    let closure seed =
      let set : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (f : Callgraph.fn) ->
          if seed f then Hashtbl.replace set (Callgraph.fn_key f) ())
        seg_fns;
      let calls_member (f : Callgraph.fn) e =
        match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, _) ->
          List.exists
            (fun g -> Hashtbl.mem set (Callgraph.fn_key g))
            (Callgraph.resolve graph ~file:f.Callgraph.fn_file
               ~line:loc.Location.loc_start.Lexing.pos_lnum txt)
        | _ -> false
      in
      let pass () =
        List.fold_left
          (fun changed f ->
            let key = Callgraph.fn_key f in
            if Hashtbl.mem set key then changed
            else if contains (calls_member f) f.Callgraph.fn_expr then begin
              Hashtbl.replace set key ();
              true
            end
            else changed)
          false seg_fns
      in
      while pass () do
        ()
      done;
      calls_member
    in
    (* Commit-capable: flushes the sink, directly or transitively. *)
    let calls_commit =
      closure (fun f ->
          contains
            (fun e ->
              match e.pexp_desc with
              | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
                is_sink_op Registry.wal_flush_names txt
              | _ -> false)
            f.Callgraph.fn_expr)
    in
    (* Reopen-capable: assigns a fresh active sink, directly or
       transitively (start_segment and its callers). *)
    let calls_reopen = closure (fun f -> contains is_active_assign f.Callgraph.fn_expr) in
    let commit_matcher f e =
      (match e.pexp_desc with
      | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
        is_sink_op Registry.wal_flush_names txt
      | _ -> false)
      || calls_commit f e
    in
    let must_commit f body = Dataflow.must_reach ~matches:(commit_matcher f) body in
    List.iter
      (fun (f : Callgraph.fn) ->
        let body = Dataflow.strip_params f.Callgraph.fn_expr in
        (* Rule 1, decomposed per match case so a [[] -> ()] arm that
           appends nothing owes nothing. *)
        let rule1_cases =
          match body.pexp_desc with
          | Pexp_match (_, cases) | Pexp_function cases ->
            List.map (fun c -> c.pc_rhs) cases
          | _ -> [ body ]
        in
        List.iter
          (fun case_body ->
            if contains is_pending_increment case_body && not (must_commit f case_body) then
              emit f
                "records a pending append on a path that never reaches a commit point \
                 (sink flush / flush_pending / maybe_commit)")
          rule1_cases;
        (* Rule 2: closing the active sink requires flushing pending
           appends on every path. *)
        let closes_active e =
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) ->
            is_sink_op Registry.wal_close_names txt
            && List.exists (fun (_, a) -> is_active_arg a) args
          | _ -> false
        in
        if contains closes_active body && not (must_commit f body) then
          emit f
            "closes the active sink without flushing pending group-commit appends first";
        (* Rule 3: linear scan — no active-sink write/flush between a
           close and the next fresh segment. *)
        let reopens f e =
          is_active_assign e
          ||
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident _; _ }, _) -> calls_reopen f e
          | _ -> false
        in
        let rec scan closed e =
          if reopens f e then false
          else begin
            match e.pexp_desc with
            | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as head), args) ->
              let closed = List.fold_left (fun c (_, a) -> scan c a) closed args in
              let on_active = List.exists (fun (_, a) -> is_active_arg a) args in
              if is_sink_op Registry.wal_close_names txt && on_active then true
              else begin
                if
                  closed && on_active
                  && is_sink_op (Registry.wal_write_names @ Registry.wal_flush_names) txt
                then
                  emit f "writes to the WAL sink after closing it (lost record)";
                if Dataflow.is_call_through head then
                  List.fold_left
                    (fun c (_, a) ->
                      if Dataflow.is_fun_literal a then scan c (Dataflow.strip_params a)
                      else c)
                    closed args
                else closed
              end
            | Pexp_sequence (a, b) -> scan (scan closed a) b
            | Pexp_let (_, vbs, b) ->
              scan (List.fold_left (fun c vb -> scan c vb.pvb_expr) closed vbs) b
            | Pexp_ifthenelse (c, t, fo) ->
              let closed = scan closed c in
              let ct = scan closed t in
              let cf = match fo with Some fe -> scan closed fe | None -> closed in
              ct || cf
            | Pexp_match (scrut, cases) ->
              let closed = scan closed scrut in
              List.fold_left (fun acc c -> scan closed c.pc_rhs || acc) false cases
            | Pexp_try (b, _) -> scan closed b
            | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> closed
            | Pexp_setfield (a, _, b) -> scan (scan closed a) b
            | Pexp_constraint (e, _) | Pexp_open (_, e) -> scan closed e
            | Pexp_tuple es | Pexp_array es -> List.fold_left scan closed es
            | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> scan closed e
            | Pexp_record (fields, base) ->
              let closed = List.fold_left (fun c (_, e) -> scan c e) closed fields in
              (match base with Some b -> scan closed b | None -> closed)
            | Pexp_field (e, _) -> scan closed e
            | Pexp_while (c, b) -> scan (scan closed c) b
            | Pexp_for (_, lo, hi, _, b) -> scan (scan (scan closed lo) hi) b
            | _ -> closed
          end
        in
        ignore (scan false body))
      seg_fns;
    List.rev !findings
  end
