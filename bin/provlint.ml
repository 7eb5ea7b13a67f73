(* provlint: AST-accurate static analysis over this repository's own
   sources (lib/ and bin/, with the lib/ interfaces and bench/,
   perfbench/ and examples/ read for unused-export).  See LINTING.md for the check catalogue and
   the [@provlint.allow "check-id"] suppression attribute.

   Exit status: 0 clean, 1 findings, 124 usage error (cmdliner). *)

open Cmdliner

let root_arg =
  Arg.(
    value & opt string "."
    & info [ "root" ] ~docv:"DIR" ~doc:"Repository root containing lib/ and bin/.")

let check_arg =
  let check_conv = Arg.enum (List.map (fun (id, _) -> (id, id)) Provkit_lint.Driver.all_checks) in
  Arg.(
    value & opt_all check_conv []
    & info [ "check" ] ~docv:"ID" ~doc:"Run only this check (repeatable; default: all).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON, one object per line.")

let sarif_arg =
  Arg.(
    value & flag
    & info [ "sarif" ] ~doc:"Emit findings as SARIF 2.1.0, one result object per line.")

let timing_arg =
  Arg.(
    value & flag
    & info [ "timing" ]
        ~doc:"Report per-check wall time on stderr (stdout stays parseable).")

let list_arg = Arg.(value & flag & info [ "list-checks" ] ~doc:"List check ids and exit.")

let run root checks json sarif timing list_checks =
  if list_checks then begin
    List.iter
      (fun (id, doc) -> Printf.printf "%-20s %s\n" id doc)
      Provkit_lint.Driver.all_checks;
    0
  end
  else begin
    let checks = match checks with [] -> Provkit_lint.Driver.check_ids | cs -> cs in
    let findings, timings = Provkit_lint.Driver.lint_tree_timed ~checks ~root () in
    if sarif then print_endline (Provkit_lint.Driver.render_sarif findings)
    else if json then print_endline (Provkit_lint.Driver.render_json findings)
    else begin
      if findings <> [] then print_endline (Provkit_lint.Driver.render_text findings);
      Printf.eprintf "provlint: %d finding(s) in %d file(s)\n" (List.length findings)
        (List.length (Provkit_lint.Driver.tree_files ~root))
    end;
    if timing then Printf.eprintf "%s\n" (Provkit_lint.Driver.render_timings timings);
    if findings = [] then 0 else 1
  end

let cmd =
  Cmd.v
    (Cmd.info "provlint" ~version:"1.0.0"
       ~doc:"AST-accurate static analysis for the browser-provenance tree")
    Term.(const run $ root_arg $ check_arg $ json_arg $ sarif_arg $ timing_arg $ list_arg)

let () = exit (Cmd.eval' cmd)
