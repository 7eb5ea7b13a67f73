(* perfbench: runs one benchmark workload and prints its metrics.

     main.exe --workload ingest|serve|history --seed N --seconds S
              --trace 0|1 --workdir DIR [--spans FILE]

   Untraced (--trace 0) prints the end-to-end metrics; traced (--trace 1)
   runs the workload under benchmark-side spans, prints the per-layer
   metrics it measured and a self-time table, and writes the spans as
   JSON lines to the --spans file.  run.py checks every metric's name and
   unit against BENCHMARK.json and fills in, as 0, the layers a workload
   does not exercise.  Every line before the last is for people; the last
   line is one JSON object {correct, attempted, failed, metrics}.  See
   README.md. *)

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith "perfbench: a metric is not a finite number"

let result_json (o : Common.outcome) =
  let metrics =
    List.map
      (fun (m : Common.metric) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.Common.name
          (json_number m.Common.value) m.Common.unit_)
      o.Common.reported
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.Common.correct o.Common.attempted o.Common.failed (String.concat ", " metrics)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let workdir = ref "." and spans = ref "spans.jsonl" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "ingest|serve|history");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = traced per-layer run");
      ("--workdir", Arg.Set_string workdir, "scratch directory for WALs");
      ("--spans", Arg.Set_string spans, "where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1 --workdir DIR [--spans FILE]";
  let untraced, traced =
    match !workload with
    | "ingest" -> (Ingest.untraced, Ingest.traced)
    | "serve" -> (Serve.untraced, Serve.traced)
    | "history" -> (History.untraced, History.traced)
    | w ->
      prerr_endline ("perfbench: unknown workload " ^ w);
      exit 2
  in
  let seed = !seed and seconds = !seconds and workdir = !workdir in
  let outcome =
    if !trace = 0 then untraced ~seed ~seconds ~workdir
    else begin
      let trace_path = !spans in
      let tally, layers, agg, notes = traced ~seed ~seconds ~workdir ~trace_path in
      print_string (Tracer.render agg);
      {
        Common.correct = tally.Common.wrong = [];
        attempted = tally.Common.attempted;
        failed = tally.Common.failed;
        reported = layers;
        extra = [];
        notes = notes @ [ "spans written to " ^ trace_path ] @ tally.Common.wrong;
      }
    end
  in
  List.iter
    (fun (m : Common.metric) -> Printf.printf "%-38s %16.4f %s\n" m.Common.name m.Common.value m.Common.unit_)
    (outcome.Common.reported @ outcome.Common.extra);
  List.iter (fun n -> Printf.printf "# %s\n" n) outcome.Common.notes;
  print_endline (result_json outcome)
