(** Failure artifacts: repro + observability snapshot on disk.

    When the fuzzer shrinks a differential failure, the repro line
    alone says {e what} to replay but not {e what the engines did}.
    {!dump} re-runs the shrunk scenario through the naive and
    incremental streaming paths with a fresh {!Fw_engine.Metrics}
    registry and an attached {!Fw_obs.Trace}, then writes two files
    into [dir]:

    - [seed-N-repro.txt] — the full failure report (problems, shrunk
      scenario, replay command);
    - [seed-N-metrics.json] — per-path metrics/trace snapshots plus
      the shrunk problem list, so per-node row counts and fallback
      reasons are inspectable offline.

    If an engine crashes on the scenario (possibly the bug itself),
    the snapshot keeps whatever was recorded before the exception and
    carries the exception text in the [crash] field.

    When a checkpointed stack ({!Paths.Stack} with sink
    [Checkpointed]) is among the shrunk failures, the shrunk scenario's
    {e pre-crash} process is additionally re-run — same deterministic
    fault plan, ingestion and budget — into
    [seed-N-precrash-PATH/], leaving the snapshot files and the
    flushed event log (torn bytes included) exactly as the simulated
    dead process would: point {!Fw_snap.Recover.load} at that
    directory to step through the failing recovery offline. *)

val dump : dir:string -> Harness.failure -> (string list, string) result
(** [dump ~dir failure] writes the artifact files, creating [dir] (and
    one missing parent) if needed.  Returns the paths written, or the
    [Sys_error] message on I/O failure. *)
