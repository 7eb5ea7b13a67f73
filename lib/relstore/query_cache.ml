(* Bounded LRU for query results: a keyed {!Provkit_util.Ring} whose
   hits touch their entry, so eviction drops the coldest.  Entries carry
   the table epoch they were computed at; validation is a single
   integer compare, and a stale entry is removed on sight (the table
   moved on, the old result can never become valid again). *)

module Ring = Provkit_util.Ring

type payload =
  | Rows of (int * Row.t) list
  | Count of int
  | Groups of (Value.t * int) list

type 'k entry = { key : 'k; mutable epoch : int; mutable payload : payload }

type 'k t = {
  lock : Mutex.t;
      (* every entry point below mutates the ring (find refreshes
         recency and drops stale entries), so concurrent reader domains
         must serialize on this lock *)
  mutable capacity : int;  (* 0 stores nothing; the ring keeps one slot *)
  ring : ('k, 'k entry) Ring.t;
}

let create ?(capacity = 512) () =
  let capacity = max 0 capacity in
  let ring = Ring.create ~key:(fun e -> Some e.key) (max 1 capacity) in
  { lock = Mutex.create (); capacity; ring }

let capacity t = Mutex.protect t.lock (fun () -> t.capacity)
let length t = Mutex.protect t.lock (fun () -> Ring.length t.ring)
let clear t = Mutex.protect t.lock (fun () -> Ring.clear t.ring)

let set_capacity t n =
  Mutex.protect t.lock (fun () ->
      t.capacity <- max 0 n;
      if n <= 0 then Ring.clear t.ring else ignore (Ring.resize t.ring n))

type lookup = Hit of payload | Stale | Absent

let find t ~key ~epoch =
  Mutex.protect t.lock (fun () ->
      match Ring.find t.ring key with
      | None -> Absent
      | Some e when e.epoch = epoch ->
        Ring.touch t.ring key;
        Hit e.payload
      | Some _ ->
        Ring.remove t.ring key;
        Stale)

let put t ~key ~epoch payload =
  Mutex.protect t.lock (fun () ->
      if t.capacity = 0 then 0
      else
        match Ring.find t.ring key with
        | Some e ->
          e.epoch <- epoch;
          e.payload <- payload;
          Ring.touch t.ring key;
          0
        | None -> if Option.is_some (Ring.push t.ring { key; epoch; payload }) then 1 else 0)
