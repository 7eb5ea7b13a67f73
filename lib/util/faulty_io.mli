(** The WAL's byte sink: an append-only file writer with a fault model.

    A {!sink} is a file opened for writing — {!write}, {!flush},
    {!close}.  {!write} only buffers; {!flush} hands the bytes written
    since the previous flush to [write(2)] once and then [fsync]s the
    file, so its cost is the new bytes plus one sync, whatever the file
    already holds.  {!close} does the same for anything still buffered
    and closes the descriptor.  Nothing already on disk is rewritten.

    The same sink can be told to damage its output the way real storage
    stacks do under failure: die mid-stream, tear the final write, flip
    a byte, or replay an unsynced buffer.  Faults may be armed at any
    time, also on a live file after bytes reached it; the next flush or
    the close repairs the destination to exactly the faulted image —
    truncating it, complementing a byte in place, or appending.  The
    durability tests and [provctl wal --inject-fault] drive the WAL
    through this one sink, so they exercise the write path production
    runs. *)

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
(** Write the bytes since the last flush (fault-adjusted), then [fsync].
    Close-time faults — torn final write, duplicated flush tail — are
    not yet applied. *)

val close : sink -> unit
(** Apply close-time faults and write what is still buffered; [fsync]
    if that changed the destination; close the file.  Idempotent. *)

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
