(* The provlint driver: discover sources under a root, parse them once,
   run the selected checks, apply [@provlint.allow] suppressions, and
   return findings in a stable order. *)

let all_checks =
  [
    (Check_codec.id, "every encoder has a decoder and their tag constants agree");
    (Check_match.id, "no wildcard case in matches over provenance-critical variants");
    (Check_io.id, "lib/ reaches Unix only through Faulty_io and Timing");
    (Check_banned.id, "no Obj.magic, lib/ printf, polymorphic Value compare, catch-all handler");
    (Check_obs.id, "metric-name literals and the lib/obs/names.ml registry agree both ways");
    (Check_epoch.id, "every table mutation bumps the modification epoch on every path");
    (Check_wal.id, "WAL appends reach a commit point; close/rotate/compact flush pending first");
    (Check_matview.id, "view folds stay deterministic: no Faulty_io/Timing/Random/printing/globals");
    (Check_shared_state.id, "toplevel mutable state in lib/ is declared in the shared-state manifest");
    (Check_unused_export.id, "every val in a lib/ .mli is used by a program, not only by tests");
  ]

let check_ids = List.map fst all_checks

(* Per-file checks see one structure at a time (and power lint_source);
   cross-file checks see the whole parsed set. *)
let per_file_runners =
  [
    (Check_codec.id, Check_codec.run);
    (Check_match.id, Check_match.run);
    (Check_io.id, Check_io.run);
    (Check_banned.id, Check_banned.run);
    (Check_epoch.id, Check_epoch.run);
    (Check_wal.id, Check_wal.run);
  ]

let cross_file_runners =
  [
    (Check_obs.id, Check_obs.run);
    (Check_matview.id, Check_matview.run);
    (Check_shared_state.id, fun parsed -> Check_shared_state.run parsed);
  ]

(* --- tree walking --- *)

let rec walk root rel acc =
  let dir = Filename.concat root rel in
  Array.fold_left
    (fun acc entry ->
      if entry = "" || entry.[0] = '.' || entry = "_build" then acc
      else begin
        let rel = rel ^ "/" ^ entry in
        let path = Filename.concat root rel in
        if Sys.is_directory path then walk root rel acc
        else if Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli" then
          rel :: acc
        else acc
      end)
    acc
    (let entries = Sys.readdir dir in
     Array.sort String.compare entries;
     entries)

(* Every check lints the .ml files under lib/ and bin/; unused-export
   also reads the lib/ interfaces and the other program directories'
   implementations, as uses. *)
let is_intf rel = Filename.check_suffix rel ".mli"
let linted rel = (not (is_intf rel)) && (Registry.in_lib rel || Registry.in_bin rel)

let tree_files ~root =
  List.sort String.compare
    (List.filter
       (fun rel -> (not (is_intf rel)) || Registry.in_lib rel)
       (List.fold_left
          (fun acc dir ->
            let top = String.sub dir 0 (String.length dir - 1) in
            if Sys.file_exists (Filename.concat root top) then walk root top acc else acc)
          [] Registry.program_dirs))

(* --- linting --- *)

let selected checks (f : Finding.t) =
  f.Finding.check = "parse-error" || List.mem f.Finding.check checks

let finish ~checks per_file_findings spans =
  let kept =
    List.filter
      (fun (f : Finding.t) ->
        selected checks f
        &&
        match List.assoc_opt f.Finding.file spans with
        | Some s -> not (Suppress.suppressed s f)
        | None -> true)
      per_file_findings
  in
  List.sort_uniq Finding.compare kept

let lint_files_timed ?(checks = check_ids) ~root rels =
  let timings = ref [] in
  let timed id f =
    let t0 = Sys.time () in
    let r = f () in
    timings := (id, Sys.time () -. t0) :: !timings;
    r
  in
  let parse parser rels =
    List.fold_left
      (fun (trees, errs) rel ->
        match parser ~filename:rel (Source.read_file (Filename.concat root rel)) with
        | Ok tree -> ((rel, tree) :: trees, errs)
        | Error f -> (trees, f :: errs))
      ([], []) (List.rev rels)
  in
  let intf_rels, impl_rels = List.partition is_intf rels in
  let (impls, impl_errs), (intfs, intf_errs) =
    timed "parse" (fun () ->
        (parse Source.parse_string impl_rels, parse Source.parse_interface intf_rels))
  in
  let parsed = List.filter (fun (rel, _) -> linted rel) impls in
  let per_file_findings =
    List.concat_map
      (fun (id, run) ->
        if List.mem id checks then
          timed id (fun () ->
              List.concat_map (fun (rel, structure) -> run ~file:rel structure) parsed)
        else [])
      per_file_runners
  in
  let cross_file_findings =
    List.concat_map
      (fun (id, run) -> if List.mem id checks then timed id (fun () -> run parsed) else [])
      cross_file_runners
  in
  let unused_findings =
    if List.mem Check_unused_export.id checks then
      timed Check_unused_export.id (fun () -> Check_unused_export.run ~impls ~intfs)
    else []
  in
  let spans =
    List.map (fun (rel, st) -> (rel, Suppress.collect st)) parsed
    @ List.map (fun (rel, sg) -> (rel, Suppress.collect_signature sg)) intfs
  in
  let findings =
    per_file_findings @ cross_file_findings @ unused_findings @ impl_errs @ intf_errs
  in
  (finish ~checks findings spans, List.rev !timings)

let lint_files ?checks ~root rels = fst (lint_files_timed ?checks ~root rels)
let lint_tree_timed ?checks ~root () = lint_files_timed ?checks ~root (tree_files ~root)
let lint_tree ?checks ~root () = fst (lint_tree_timed ?checks ~root ())

let lint_source ?(checks = check_ids) ~filename source =
  match Source.parse_string ~filename source with
  | Error f -> [ f ]
  | Ok structure ->
    let findings =
      List.concat_map
        (fun (id, run) -> if List.mem id checks then run ~file:filename structure else [])
        per_file_runners
    in
    finish ~checks findings [ (filename, Suppress.collect structure) ]

(* --- rendering --- *)

let render_text findings = String.concat "\n" (List.map Finding.to_string findings)

let render_json findings =
  match findings with
  | [] -> "[]"
  | fs -> "[\n" ^ String.concat ",\n" (List.map Finding.to_json fs) ^ "\n]"

(* Minimal SARIF 2.1.0: one run, the check catalogue as rules, one
   result object per line (the gate greps result lines textually, like
   the JSON format). *)
let render_sarif findings =
  let rules =
    String.concat ","
      (List.map
         (fun (id, desc) ->
           Printf.sprintf {|{"id":"%s","shortDescription":{"text":"%s"}}|}
             (Finding.json_escape id) (Finding.json_escape desc))
         all_checks)
  in
  let results = List.map Finding.to_sarif findings in
  Printf.sprintf
    "{\"version\":\"2.1.0\",\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"provlint\",\"rules\":[%s]}},\"results\":[%s]}]}"
    rules
    (match results with [] -> "" | rs -> "\n" ^ String.concat ",\n" rs ^ "\n")

let render_timings timings =
  String.concat "\n"
    (List.map (fun (id, s) -> Printf.sprintf "%-22s %8.1f ms" id (s *. 1000.)) timings)
