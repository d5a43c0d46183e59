(** Checkpointing runtime: a {!Fw_engine.Stream_exec} wrapped with a
    durable snapshot policy and a write-ahead event log.

    Layout of a checkpoint directory:

    - [chk-NNNNNNNNN.fws] — snapshot [g] (sequence numbers from 1),
      written to a temp file then {!Sys.rename}d into place so a crash
      never leaves a half-visible snapshot under the final name;
    - [wal-NNNNNNNNN.log] — log segment [g] holding exactly the input
      fed {e after} snapshot [g] (segment 0: from stream start).  Each
      record is CRC-framed and flushed before the events it holds are
      fed, so after a crash every event ever fed is durable and a torn
      tail is detectable;
    - [rows.log] — emitted result rows, appended in emission order and
      flushed at checkpoint time only.  A snapshot records how many of
      them it covers instead of embedding them, keeping checkpoint cost
      proportional to live operator state rather than to total output.

    Recovery from snapshot [g] therefore replays segments [g..latest]
    — see {!Recover}.  Snapshots beyond the retention count are pruned
    (with one extra log segment kept below the oldest, so recovery can
    fall back past a corrupt newest snapshot).

    Checkpoints fire every [every] events, on every punctuation when
    [on_punctuation], and on {!checkpoint_now}.  Each one publishes
    [snap_checkpoints_total], [snap_checkpoint_bytes] and
    [snap_checkpoint_pause_ns] into the run's metrics registry, so the
    bench [snap] section and [--stats] can price the pause. *)

type t

val create :
  dir:string ->
  ?every:int ->
  ?on_punctuation:bool ->
  ?retain:int ->
  ?fault:Fault.t ->
  ?metrics:Fw_engine.Metrics.t ->
  ?mode:Fw_engine.Stream_exec.mode ->
  ?observe:bool ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  t
(** Fresh pipeline over an empty (or to-be-created) directory.
    [every] defaults to 1000 events, [retain] to 3 snapshots.  Raises
    [Invalid_argument] on non-positive [every]/[retain] or an invalid
    plan, and — before writing anything — on a directory that already
    holds snapshot or log files (a used directory is resumed with
    {!Recover.load}, never reused: its stale files would be read back
    as the new run's history).  The message names the directory and
    one stale file.  [spill] runs the executor under a memory budget
    ({!Fw_engine.Stream_exec.create}); snapshots re-absorb spilled
    entries at export time, so checkpoints stay self-contained and
    recovery never reads spill files. *)

val resume :
  dir:string ->
  ?every:int ->
  ?on_punctuation:bool ->
  ?retain:int ->
  ?fault:Fault.t ->
  ?observe:bool ->
  plan:Fw_plan.Plan.t ->
  mode:Fw_engine.Stream_exec.mode ->
  metrics:Fw_engine.Metrics.t ->
  seq:int ->
  rows_persisted:int ->
  Fw_engine.Stream_exec.t ->
  t
(** Wrap an executor rebuilt by {!Recover}, continuing the sequence
    numbering above [seq].  [mode] is the executor's mode, which its
    snapshots are fingerprinted with.  [rows_persisted] is the
    whole-record length recovery truncated [rows.log] to; appending
    continues after it.
    Takes an immediate snapshot so the new process starts its own log
    segment instead of appending after a possibly-torn tail. *)

val feed_batch : t -> Fw_engine.Batch.t -> unit
(** The pipeline's one ingest path.  The whole batch is first validated
    against the executor's watermark ({!Fw_engine.Stream_exec.validate}),
    events made late by a mark earlier in the same batch included: a
    late event raises {!Fw_engine.Stream_exec.Late_event} before
    anything is logged, so a rejected batch leaves no WAL record and no
    state change, and recovery from the directory still succeeds.

    A valid batch is split at every point where per-event execution
    would act: batch-internal punctuation marks (logged and applied in
    place, with an [on_punctuation] snapshot if configured — i.e.
    checkpoints can land {e mid-batch} and recover byte-identically),
    the [every]-event checkpoint cadence, and the fault plan's crash
    ordinal — the latter two computed from the counters, not found by
    walking events.  Each piece is framed into the WAL straight from
    the batch columns and made durable (one output and one flush per
    piece) before it reaches the executor as a column range
    ({!Fw_engine.Stream_exec.feed_range}), so a {!Fault.Crash} raised
    mid-batch leaves the log holding exactly the events fed — the same
    durable prefix a per-event run would have.  Propagates
    {!Fault.Crash}. *)

val feed : t -> Fw_engine.Event.t -> unit
(** {!feed_batch} of a one-event batch: validate, log (durably), feed
    the executor, run the fault hooks, then checkpoint if the policy
    says so. *)

val advance : t -> int -> unit
(** {!feed_batch} of a punctuation-only batch: log and apply the
    punctuation, then snapshot if [on_punctuation]. *)

val checkpoint_now : t -> unit
(** Force a snapshot regardless of policy. *)

val close : t -> horizon:int -> Fw_engine.Row.t list
(** Close the log and the executor; returns the sorted rows. *)

val abandon : t -> unit
(** Drop the pipeline without a horizon, as if its process were
    killed: close the log and row-log channels, discarding what they
    buffer, and write nothing.  The directory is left exactly as the
    process's death would leave it.  After a {!close} it drops only
    what a close that raised midway left open. *)

val metrics : t -> Fw_engine.Metrics.t

val seq : t -> int
(** Sequence number of the newest snapshot written (0 = none yet). *)

val row_count : t -> int
(** Rows emitted so far, in emission order ({!row} reads the [i]-th) —
    on a pipeline resumed by {!Recover} this includes the recovered
    emission history, so a driver streaming rows out incrementally
    (the query server's taps) survives restarts without re-execution. *)

val row : t -> int -> Fw_engine.Row.t

(** {2 Directory naming (shared with {!Recover} and tests)} *)

val chk_name : int -> string
val wal_name : int -> string
val rows_name : string

val chk_seq : string -> int option
val wal_seq : string -> int option
