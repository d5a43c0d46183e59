(** Fault injection for crash-recovery testing.

    A fault plan is threaded into {!Checkpoint}; the checkpoint runtime
    calls the hooks at the right moments, so the injected failures land
    exactly where real ones would — after an event is durable in the
    log, or on the most recently written snapshot file.

    Injection simulates two failure classes:

    - {b process death}: {!on_event} raises {!Crash} once the configured
      event ordinal is reached, abandoning the pipeline with whatever is
      on disk (the log is flushed per record, so everything fed so far
      is durable);
    - {b torn snapshot write}: before crashing, the tail of the most
      recently written checkpoint file is truncated, modelling a torn
      disk write that the rename made visible.  Recovery must detect it
      (CRC / length checks) and fall back to the previous snapshot. *)

exception Crash of string
(** The simulated process death.  Deliberately {e not} caught by
    {!Checkpoint} — the harness catches it where a supervisor would. *)

type t

val create : ?crash_at_event:int -> ?torn_bytes:int -> unit -> t
(** [crash_at_event k] raises {!Crash} when the [k]-th event (1-based,
    counted per process) has been logged and fed.  [torn_bytes n]
    additionally truncates the last written checkpoint file by [n]
    bytes just before the crash.  Raises [Invalid_argument] on
    non-positive values. *)

val passive : unit -> t
(** Injects nothing — the default for production checkpointing. *)

val crash_at_event : t -> int option
(** The configured crash ordinal, if any.  Batched ingestion cuts its
    pieces here so the crash lands after exactly the same events
    as under per-event feeding. *)

(** {2 Hooks (called by {!Checkpoint})} *)

val on_event : t -> int -> unit
(** [on_event t ordinal] after the [ordinal]-th event of this process
    is durable and applied; raises {!Crash} when the trigger fires. *)

val on_checkpoint_written : t -> string -> unit
(** Records the path of the snapshot file just renamed into place, the
    target of a torn-write injection. *)
