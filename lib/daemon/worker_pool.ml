(* A domain kept between jobs.  See worker_pool.mli for why provd's
   ingest owner runs on one. *)

type worker = {
  w_lock : Mutex.t;
  w_wake : Condition.t;
  mutable w_task : (unit -> unit -> unit) option;
      (* runs the job and returns what publishes its result *)
}

let lock = Mutex.create ()
let spare : worker option ref = ref None

(* Keeps [w] unless a worker is parked already. *)
let park w =
  Mutex.protect lock (fun () ->
      match !spare with
      | None ->
        spare := Some w;
        true
      | Some _ -> false)

let rec next_task w =
  match w.w_task with
  | Some task ->
    w.w_task <- None;
    task
  | None ->
    Condition.wait w.w_wake w.w_lock;
    next_task w

(* The worker is parked again before its job's result is out, so a
   caller that joins the job and starts another reuses this domain.  A
   worker that finds the spare slot taken lets its domain end. *)
let rec serve w =
  let task = Mutex.protect w.w_lock (fun () -> next_task w) in
  let publish = task () in
  let parked = park w in
  publish ();
  if parked then serve w

type 'a job = {
  j_lock : Mutex.t;
  j_done : Condition.t;
  mutable j_result : ('a, exn * Printexc.raw_backtrace) result option;
}

let spawn f =
  let j = { j_lock = Mutex.create (); j_done = Condition.create (); j_result = None } in
  let task () =
    let r = match f () with v -> Ok v | exception e -> Error (e, Printexc.get_raw_backtrace ()) in
    fun () ->
      Mutex.protect j.j_lock (fun () ->
          j.j_result <- Some r;
          Condition.broadcast j.j_done)
  in
  let taken =
    Mutex.protect lock (fun () ->
        let w = !spare in
        spare := None;
        w)
  in
  (match taken with
  | Some w ->
    Mutex.protect w.w_lock (fun () ->
        w.w_task <- Some task;
        Condition.signal w.w_wake)
  | None ->
    let w = { w_lock = Mutex.create (); w_wake = Condition.create (); w_task = Some task } in
    ignore (Domain.spawn (fun () -> serve w)));
  j

let join j =
  let rec wait () =
    match j.j_result with
    | Some r -> r
    | None ->
      Condition.wait j.j_done j.j_lock;
      wait ()
  in
  match Mutex.protect j.j_lock wait with
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let parked () = Mutex.protect lock (fun () -> Option.is_some !spare)
