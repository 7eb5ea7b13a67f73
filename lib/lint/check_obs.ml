(* obs-names: AST-accurate metric-name hygiene, replacing the old
   grep-based tools/obs_lint.sh.

   lib/obs/names.ml is the single source of truth for metric names.
   Two directions are enforced:

   - every string literal shaped like a metric name ("prov." plus at
     least two more dotted segments) appearing in lib/ or bin/ must be
     declared there — a typo at an instrumentation site fails the build
     instead of silently creating a parallel metric;
   - every declared name must actually be recorded somewhere in lib/ or
     bin/ (referenced as [Names.x] / [Obs.Names.x], or as the literal
     itself) — the inverse check grep could not express: a registered
     but never-recorded metric is a dashboard lying about coverage.

   Unlike the grep, literals in comments are invisible here, and test
   code remains exempt (suites may invent scratch names).

   The same file also registers trace span names, as [span_*] string
   bindings.  For those the contract is:

   - the name argument of [Trace.record] / [Trace.with_span] in lib/
     must not be a string literal unless that literal is a registered
     span constant — ad-hoc span names in the library would fragment
     the profile trees that provctl renders (bin/ may still improvise:
     CLI phase spans are not library API);
   - every registered [span_*] binding must be referenced somewhere in
     lib/ or bin/.

   Alert rule ids ("alert." + two more dotted segments, digits allowed)
   and health check names ("health." + two more segments) get the same
   two-way treatment: a shaped literal in lib/ or bin/ must be a
   registered names.ml constant, and every registered constant must be
   used.  One-segment reason strings like "alert.fired" are not ids and
   stay exempt. *)

open Parsetree

let id = "obs-names"

module SSet = Set.Make (String)

(* Top-level [let name = "prov.x.y"] bindings of the names module. *)
let registry_of structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | Ppat_var name, Pexp_constant (Pconst_string (s, _, _))
              when Registry.is_metric_literal s -> Some (name.txt, s, vb.pvb_loc)
            | _ -> None)
          vbs
      | _ -> [])
    structure

(* Top-level bindings of the names module whose literal has a given
   dotted-id shape — the alert-rule-id and health-check-name
   registries.  Shape of the literal, not of the binding name, decides:
   [alert_fires = "prov.alert.fires.total"] is a metric, not a rule. *)
let shaped_registry_of ~shaped structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | Ppat_var name, Pexp_constant (Pconst_string (s, _, _)) when shaped s ->
              Some (name.txt, s, vb.pvb_loc)
            | _ -> None)
          vbs
      | _ -> [])
    structure

(* Top-level [let span_x = "..."] bindings of the names module. *)
let span_registry_of structure =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.filter_map
          (fun vb ->
            match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
            | Ppat_var name, Pexp_constant (Pconst_string (s, _, _))
              when Registry.has_prefix ~prefix:"span_" name.txt -> Some (name.txt, s, vb.pvb_loc)
            | _ -> None)
          vbs
      | _ -> [])
    structure

type uses = { mutable idents : SSet.t; mutable literals : SSet.t }

type registered = { metrics : SSet.t; alerts : SSet.t; health : SSet.t; spans : SSet.t }

let is_trace_fn path fn =
  (fn = "record" || fn = "with_span")
  && match List.rev (Longident.flatten path) with "Trace" :: _ -> true | _ -> false

(* One walk over a file: record its [Names.x] references and string
   literals into [uses], and flag unregistered name-shaped literals and
   (in lib/) literal span names at [Trace.record] / [Trace.with_span]
   sites. *)
let scan ~file structure uses reg =
  let findings = ref [] in
  let flag loc fmt s =
    findings := Source.finding ~check:id ~file loc (Printf.sprintf fmt s) :: !findings
  in
  let spans_checked = Registry.in_lib file in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Ldot (path, x); _ } -> begin
            match List.rev (Longident.flatten path) with
            | "Names" :: _ -> uses.idents <- SSet.add x uses.idents
            | _ -> ()
          end
          | Pexp_constant (Pconst_string (s, _, _)) ->
            (* All literals, not just metric-shaped ones: span constants
               are matched by their literal value too. *)
            uses.literals <- SSet.add s uses.literals;
            if Registry.is_metric_literal s && not (SSet.mem s reg.metrics) then
              flag e.pexp_loc "unregistered metric name %S: add it to lib/obs/names.ml" s
            else if Registry.is_alert_literal s && not (SSet.mem s reg.alerts) then
              flag e.pexp_loc
                "unregistered alert rule id %S: add an alert_* constant to lib/obs/names.ml" s
            else if Registry.is_health_literal s && not (SSet.mem s reg.health) then
              flag e.pexp_loc
                "unregistered health check name %S: add a health_* constant to \
                 lib/obs/names.ml"
                s
          | Pexp_apply
              ({ pexp_desc = Pexp_ident { txt = Longident.Ldot (path, fn); _ }; _ }, args)
            when spans_checked && is_trace_fn path fn -> begin
            match List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args with
            | Some (_, { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); pexp_loc; _ })
              when not (SSet.mem s reg.spans) ->
              flag pexp_loc "unregistered span name %S: add a span_* constant to lib/obs/names.ml"
                s
            | _ -> ()
          end
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  !findings

(* [files] are (relative path, parsed structure) pairs for the tree. *)
let run files =
  match List.find_opt (fun (rel, _) -> Registry.is_metric_names_file rel) files with
  | None -> []
  | Some (names_rel, names_structure) ->
    let registry = registry_of names_structure in
    let others =
      List.filter
        (fun (rel, _) ->
          rel <> names_rel && (Registry.in_lib rel || Registry.in_bin rel))
        files
    in
    let span_registry = span_registry_of names_structure in
    let alert_registry = shaped_registry_of ~shaped:Registry.is_alert_literal names_structure in
    let health_registry =
      shaped_registry_of ~shaped:Registry.is_health_literal names_structure
    in
    let literals reg = SSet.of_list (List.map (fun (_, s, _) -> s) reg) in
    let reg =
      {
        metrics = literals registry;
        alerts = literals alert_registry;
        health = literals health_registry;
        spans = literals span_registry;
      }
    in
    let uses = { idents = SSet.empty; literals = SSet.empty } in
    let unregistered =
      List.concat_map (fun (rel, structure) -> scan ~file:rel structure uses reg) others
    in
    let span_unused =
      List.filter_map
        (fun (name, literal, loc) ->
          if SSet.mem name uses.idents || SSet.mem literal uses.literals then None
          else
            Some
              (Source.finding ~check:id ~file:names_rel loc
                 (Printf.sprintf
                    "span %s (%S) is registered but never recorded in lib/ or bin/" name
                    literal)))
        span_registry
    in
    let unused =
      List.filter_map
        (fun (name, literal, loc) ->
          if SSet.mem name uses.idents || SSet.mem literal uses.literals then None
          else
            Some
              (Source.finding ~check:id ~file:names_rel loc
                 (Printf.sprintf
                    "metric %s (%S) is registered but never recorded in lib/ or bin/" name
                    literal)))
        registry
    in
    let unused_shaped what reg =
      List.filter_map
        (fun (name, literal, loc) ->
          if SSet.mem name uses.idents || SSet.mem literal uses.literals then None
          else
            Some
              (Source.finding ~check:id ~file:names_rel loc
                 (Printf.sprintf "%s %s (%S) is registered but never used in lib/ or bin/"
                    what name literal)))
        reg
    in
    unregistered @ unused @ span_unused
    @ unused_shaped "alert rule" alert_registry
    @ unused_shaped "health check" health_registry
