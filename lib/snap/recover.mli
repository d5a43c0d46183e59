(** Crash recovery: rebuild a running pipeline from a {!Checkpoint}
    directory.

    {!load} picks the newest snapshot that decodes and restores
    cleanly — falling back past corrupt, truncated or torn ones, whose
    errors it reports in [skipped] — restores the executor and the
    cost-model counters to their at-snapshot values, then replays the log
    segments from that snapshot forward through the normal executor
    paths.  Because the engine is deterministic and the codec
    preserves float bit patterns, the resumed pipeline's rows and
    window counters are byte-identical to an uninterrupted run's (the
    property {!Fw_check}'s [Crash_restart] path fuzzes).

    With no usable snapshot at all, a full-history log (segment 0
    onward) still recovers from scratch; anything less fails closed
    with a descriptive error — as do version or plan-fingerprint
    mismatches (see {!Codec.decode_snapshot}) and gaps in the log. *)

type resumed = {
  checkpoint : Checkpoint.t;
      (** resumed pipeline — already re-snapshotted, keep feeding it *)
  metrics : Fw_engine.Metrics.t;
  recovered_from : int option;
      (** snapshot sequence loaded; [None] = full log replay *)
  replayed_events : int;
  replayed_advances : int;
  skipped : (int * string) list;
      (** snapshots skipped as undecodable or unrestorable, with their
          errors *)
}

val load :
  dir:string ->
  ?every:int ->
  ?on_punctuation:bool ->
  ?retain:int ->
  ?fault:Fault.t ->
  ?observe:bool ->
  ?mode:Fw_engine.Stream_exec.mode ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  (resumed, string) result
(** [mode] defaults to {!Fw_engine.Stream_exec.Naive} and must match
    the crashed run's (the plan fingerprint pins both).  [spill] runs
    the rebuilt executor under a memory budget — snapshots are
    self-contained, so recovery itself never reads spill files (a
    crashed run's scratch spill data is simply dead). *)
