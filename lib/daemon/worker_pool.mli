(** A worker domain kept between jobs.

    {!spawn} runs a job on the parked worker, or on a new domain when
    none is parked.  When a job ends its worker parks, unless another
    worker is parked already, in which case its domain ends.

    provd runs its ingest owner here.  That domain allocates the store
    and the relational image, so its major heap is the process's
    largest, and on OCaml 5 the pools of a domain that ends pass to the
    domains that survive it: a process that starts and stops provd many
    times grew its heap with every stop, and the collector's work with
    it.  A reused domain keeps its pools.  At most one worker is parked,
    because a parked domain still takes part in every stop-the-world
    collection: on a machine with few cores, several idle domains slow
    every collection of the process. *)

type 'a job

val spawn : (unit -> 'a) -> 'a job
(** Starts the job at once, on its own domain. *)

val join : 'a job -> 'a
(** Waits for the job; re-raises its exception, with its backtrace.
    The worker is parked (or ending) before [join] returns. *)

val parked : unit -> bool
(** Whether a worker is parked now. *)
