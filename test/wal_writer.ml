(* Writer half of test_wal's kill-the-writer test.

   Usage: wal_writer.exe JOURNAL DIR

   Appends the ops of a saved journal one by one to the WAL in DIR at
   group_commit_ops = 8, printing [Seg.synced] whenever it has advanced
   since the last report (commits are synced by the WAL's committer
   thread, so an append returning does not make it durable), then
   waits for [Seg.durable], prints the final count and "done", and
   waits on stdin until it is killed. *)

module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented

let () =
  match Sys.argv with
  | [| _; journal; dir |] ->
    let config =
      { Seg.default_config with Seg.group_commit_ops = 8; Seg.max_segment_bytes = 4096 }
    in
    let h = Seg.open_ ~config dir in
    let reported = ref 0 in
    let report () =
      let k = Seg.synced h in
      if k > !reported then begin
        reported := k;
        Printf.printf "%d\n%!" k
      end
    in
    List.iter
      (fun op ->
        Seg.append h op;
        report ())
      (PL.ops (PL.of_bytes (In_channel.with_open_bin journal In_channel.input_all)));
    Seg.durable h;
    report ();
    print_endline "done";
    ignore (In_channel.input_line stdin)
  | _ ->
    prerr_endline "usage: wal_writer.exe JOURNAL DIR";
    exit 2
