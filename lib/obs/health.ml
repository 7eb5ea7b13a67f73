(* The health aggregator: named checks composed into one Ok / Degraded
   / Failing verdict.  Checks are registered by the subsystems that can
   judge themselves — the segmented WAL contributes a manifest-sanity
   check, the stats catalog a freshness check, provctl an
   epoch-consistency check — and this module contributes the built-in
   "no open alerts" check over the alert engine.

   Check names are dotted "health.<subsystem>.<what>" constants from
   Names (the obs-names lint enforces registration), so `provctl
   health --json` output is greppable against a fixed vocabulary. *)

type verdict = Ok | Degraded | Failing

type check_result = { cr_name : string; cr_verdict : verdict; cr_detail : string }

type report = { h_verdict : verdict; h_checks : check_result list }

let verdict_name = function Ok -> "ok" | Degraded -> "degraded" | Failing -> "failing"

let rank = function Ok -> 0 | Degraded -> 1 | Failing -> 2

let worst a b = if rank a >= rank b then a else b

(* Registered checks, kept in registration order so the report reads
   in the order subsystems were wired.  Re-registering a name replaces
   it in place. *)
let checks : (string * (unit -> verdict * string)) list ref = ref []

let register name f =
  if List.mem_assoc name !checks then
    checks := List.map (fun (n, g) -> if n = name then (n, f) else (n, g)) !checks
  else checks := !checks @ [ (name, f) ]

let unregister name = checks := List.filter (fun (n, _) -> n <> name) !checks

let run () =
  let results =
    List.map
      (fun (name, f) ->
        let verdict, detail =
          (* Catch-all is deliberate: a check that raises — whatever it
             raises — must read as a failing check, never crash the
             health report that exists to explain failures. *)
          (try f ()
           with exn -> (Failing, Printf.sprintf "check raised: %s" (Printexc.to_string exn)))
          [@provlint.allow "banned-constructs"]
        in
        { cr_name = name; cr_verdict = verdict; cr_detail = detail })
      !checks
  in
  let overall = List.fold_left (fun acc r -> worst acc r.cr_verdict) Ok results in
  { h_verdict = overall; h_checks = results }

(* The built-in check: open critical alerts fail the process, open
   warnings degrade it, info-level firing is reported but healthy. *)
let alerts_check () =
  let firing = Alert.firing () in
  let by sev = List.filter (fun st -> st.Alert.st_rule.Alert.r_severity = sev) firing in
  let ids sts = String.concat ", " (List.map (fun st -> st.Alert.st_rule.Alert.r_id) sts) in
  match (by Alert.Critical, by Alert.Warning) with
  | [], [] ->
    let n = List.length (Alert.states ()) in
    ( Ok,
      if firing = [] then Printf.sprintf "no open alerts (%d rules)" n
      else Printf.sprintf "info-level only: %s" (ids firing) )
  | [], warns -> (Degraded, Printf.sprintf "warning alerts open: %s" (ids warns))
  | crits, _ -> (Failing, Printf.sprintf "critical alerts open: %s" (ids crits))

let () = register Names.health_alerts_clear alerts_check

let render report =
  let table =
    Provkit_util.Table_fmt.render
      ~aligns:Provkit_util.Table_fmt.[ Left; Left; Left ]
      ~header:[ "check"; "verdict"; "detail" ]
      (List.map (fun r -> [ r.cr_name; verdict_name r.cr_verdict; r.cr_detail ]) report.h_checks)
  in
  Printf.sprintf "%s\noverall: %s\n" table (verdict_name report.h_verdict)

let to_json report =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "{\"verdict\":\"%s\",\"checks\":[" (verdict_name report.h_verdict));
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"name\":\"%s\",\"verdict\":\"%s\",\"detail\":\"%s\"}"
           (Metrics.json_escape r.cr_name) (verdict_name r.cr_verdict)
           (Metrics.json_escape r.cr_detail)))
    report.h_checks;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let exit_code report = match report.h_verdict with Failing -> 1 | Ok | Degraded -> 0
