(* Writer half of test_wal's kill-the-writer test.

   Usage: wal_writer.exe JOURNAL DIR

   Appends the ops of a saved journal one by one to the WAL in DIR at
   group_commit_ops = 8, printing the number of committed ops after
   every commit, then prints "done" and waits on stdin until it is
   killed. *)

module PL = Core.Prov_log
module Seg = Core.Prov_log.Segmented

let () =
  match Sys.argv with
  | [| _; journal; dir |] ->
    let config =
      { Seg.default_config with Seg.group_commit_ops = 8; Seg.max_segment_bytes = 4096 }
    in
    let h = Seg.open_ ~config dir in
    List.iter
      (fun op ->
        Seg.append h op;
        if Seg.pending h = 0 then Printf.printf "%d\n%!" (Seg.appended h))
      (PL.ops (PL.load ~path:journal));
    print_endline "done";
    ignore (In_channel.input_line stdin)
  | _ ->
    prerr_endline "usage: wal_writer.exe JOURNAL DIR";
    exit 2
