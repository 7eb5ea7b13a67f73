(** The WAL's byte sink: an append-only file writer with a fault model.

    A {!sink} is a file opened for writing — {!write}, {!flush},
    {!close}.  {!write} only buffers; {!flush} hands the bytes written
    since the previous flush to [write(2)] once, so its cost is the new
    bytes, whatever the file already holds.  {!close} does the same for
    anything still buffered and closes the descriptor.  Nothing already
    on disk is rewritten.

    Durability is the separate sync half.  {!syncer} takes the sink's
    file descriptor and nothing else, so {!sync} may run on another
    thread while the sink's owner keeps writing: every piece of sink
    bookkeeping stays with the owner.  [write]/[flush]/[close] are not
    thread-safe and never [fsync]; a caller that needs bytes durable
    flushes them and then syncs.  {!sync_dir} persists a directory's
    entries (a created or renamed file).

    The same sink can be told to damage its output the way real storage
    stacks do under failure: die mid-stream, tear the final write, flip
    a byte, or replay an unsynced buffer.  Faults may be armed at any
    time, also on a live file after bytes reached it; the next flush or
    the close repairs the destination to exactly the faulted image —
    truncating it, complementing a byte in place, or appending.  The
    durability tests and [provctl wal --inject-fault] drive the WAL
    through this one sink, so they exercise the write path production
    runs.  The fault model covers file contents only: a lost directory
    entry is not modelled. *)

type fault =
  | Crash_after_bytes of int
      (** Everything past the first [n] bytes never reaches storage;
          armed late, it truncates what the file already holds. *)
  | Torn_final_write of int
      (** At close, the file ends [n] bytes into the final [write] call,
          even if that write was already flushed. *)
  | Flip_byte of int
      (** The byte at this offset is complemented (bit-level rot): as it
          is written, or in place if it is already on disk.  Armed twice,
          the flips cancel. *)
  | Duplicate_flush
      (** At close, the bytes written since the last [flush] are
          emitted twice. *)

type sink

val to_file : ?faults:fault list -> string -> sink
(** Create (or truncate) the file and keep it open until {!close}. *)

val to_buffer : ?faults:fault list -> Buffer.t -> sink
(** A sink whose destination is a caller-owned buffer instead of the
    filesystem.  The buffer is cleared, as [to_file] truncates. *)

val arm : sink -> fault list -> unit
(** Add faults to an open sink — lets a caller decide *after* writing
    which file to hurt (e.g. the active WAL segment).  They take effect
    at the next {!flush} or at {!close}. *)

val write : sink -> string -> unit
(** Buffer bytes; nothing reaches the destination before a flush. *)

val flush : sink -> unit
(** The write half of a commit: hand the bytes since the last flush
    (fault-adjusted) to [write(2)].  No [fsync] — see {!sync}.
    Close-time faults — torn final write, duplicated flush tail — are
    not yet applied.  Owner only. *)

type syncer
(** A sink's sync half: its file descriptor, nothing else. *)

val syncer : sink -> syncer
(** Valid until the sink is closed.  A buffer sink's syncer does
    nothing. *)

val sync : syncer -> unit
(** [fsync(2)] the file: every byte flushed before the call is durable
    when it returns.  Touches no sink state, so one other thread may
    call it while the owner writes and flushes; [Unix.fsync] releases
    the runtime lock while it waits. *)

val sync_dir : string -> unit
(** [fsync(2)] a directory, making the entries created, renamed or
    removed in it so far durable. *)

type synced = File of string | Dir of string  (** the path synced *)

val set_sync_hook : (synced -> unit) option -> unit
(** Register an observer called after every successful [fsync(2)] this
    module makes, on the thread that made it ({!sync} may run on a
    committer thread, so the observer must be thread-safe).  Tests use
    it to count the syscalls and to see their order; [None]
    unregisters. *)

val close : sink -> unit
(** Apply close-time faults, write what is still buffered and close the
    file.  No [fsync]: sync before closing whatever must be durable.
    Idempotent. *)

val contents : sink -> string
(** The bytes the destination currently holds. *)

val bytes_written : sink -> int
(** Total bytes offered by [write] calls, before any fault. *)

val set_fault_hook : (fault -> unit) option -> unit
(** Register an observer called once per armed fault when a sink
    carrying faults is closed (the moment the corruption is actually
    applied).  Used by the flight recorder; [None] unregisters. *)

val parse_fault : string -> fault option
(** Command-line spec: ["crash@N"], ["tear@N"], ["flip@N"],
    ["dup-flush"]. *)

val fault_to_string : fault -> string
