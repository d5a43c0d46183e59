(** Push-based streaming executor.

    Executes a {!Fw_plan.Plan.t} as a dataflow of operators, the way a
    stream processing engine would: events are pushed through the DAG
    in event-time order; window operators fire an instance when the
    watermark passes its upper bound; multicasts replicate items; the
    final union feeds the result sink.  Windows fed by another window
    consume that window's {e sub-aggregate emissions} instead of raw
    events — the shared computation the rewriting creates.

    Two execution {!mode}s are offered for window aggregates:

    - {!Naive} (the default): every event is folded into all pending
      instances containing it — O(r/s) states touched per event.  The
      per-window item counters of this mode match the paper's analytic
      cost model exactly, which the differential invariants pin.
    - {!Incremental}: raw events fold into one open {e per-slide pane}
      ({!Fw_agg.Pane}); sealed panes feed per-key sliding queues
      ({!Fw_agg.Swag}) so each event is touched O(1) amortized times
      regardless of r/s.  A window falls back to the per-instance path
      when panes don't apply: holistic aggregates (no constant-size
      sub-aggregate), non-aligned geometries (the instance doesn't tile
      into panes), or a window fed by another window (irregular
      sub-aggregate input).  Results are identical in both modes; the
      incremental mode's metrics charge the final-combine work (pane
      states merged per fired instance) rather than per-instance
      insertions.

    Watermarks are strictly monotone: feeding an event older than the
    current watermark raises {!Late_event} (the engine assumes ordered
    input; see {!Fw_workload.Event_gen} which produces ordered
    streams).

    {b Observability.}  Every node maintains {!Metrics.node_stats}
    (rows in/out as plain counter increments; instance fires, pane
    flushes and sliding-queue evictions on the firing path) in the
    run's {!Metrics.t}.  Activation latencies are sampled into a
    histogram — one clock pair per 16 firing activations, or every
    activation when a trace is attached to the metrics {e before}
    {!create} (each sampled activation then also records a span).
    Incremental-mode nodes that fall back to the per-instance path are
    counted with their reason ([holistic-aggregate], [window-fed-input]
    or [non-aligned-window]).  [~observe:false] skips all of it — the
    toggle exists so the bench [obs] section can price the
    instrumentation itself.

    {b Window families.}  Count hops ([R⟨r,s⟩], ROWS frames) run on a
    dedicated per-key ordinal operator in {e both} modes: instance [m]
    of key [k] covers that key's event ordinals [[m·s, m·s+r)] and
    fires the moment ordinal [m·s+r−1] arrives — watermark-free, so
    batched execution is structurally identical to per-event.  Count
    windows fed by an upstream count window (WCG rewrites) complete
    when the covering sub ending exactly at the instance's bound
    arrives.  Session windows ([S⟨gap⟩]) run a per-key gap-tracking
    operator: an event joins its key's open session iff it lands
    before [last + gap]; rotated/expired sessions emit at the first
    watermark past their deadline with interval [[first, last+gap)].
    In {!Incremental} mode both surface through the fallback metric
    with reasons [count-window] and [session-window]. *)

exception Late_event of Event.t

type mode = Naive | Incremental

type t

val create :
  ?metrics:Metrics.t ->
  ?mode:mode ->
  ?observe:bool ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  t
(** Raises [Invalid_argument] if the plan fails {!Fw_plan.Validate}.
    [mode] defaults to {!Naive}; [observe] defaults to [true].

    [spill] attaches a memory-budget pool: every operator's per-key
    state (pending window instances, pane sliding queues, count-window
    trackers, open sessions) then lives in budgeted
    {!Fw_spill.Store}s whose cold entries may be evicted to disk and
    faulted back in bit-identical on access — rows and cost-model
    counters are unaffected (the differential fuzzer's [spilled] path
    byte-compares them).  The pool is owned by the caller and must
    outlive the executor. *)

val feed : t -> Event.t -> unit
(** Push one event; may trigger window firings for instances that the
    event's timestamp proves complete.  Implemented as a batch of one
    ({!feed_batch} over a recycled one-slot scratch batch), so the two
    entry points cannot drift apart semantically. *)

val feed_batch : t -> Batch.t -> unit
(** Push a whole columnar batch with one amortized dispatch per plan
    node per segment, instead of one per event.  Punctuation marks
    inside the batch split it into segments; pending instances fire at
    exactly the marked points, and once more at the end of each
    segment (the last event's time), so watermark semantics are
    preserved mid-batch.

    Equivalence contract (pinned by [test/test_batch.ml] and the
    batched differential stacks): any partition of an event
    stream into batches, with any placement of punctuation marks,
    yields byte-identical rows and bit-for-bit identical cost-model
    counters ({!Metrics.ingested}, {!Metrics.per_window}) versus the
    per-event {!feed}/{!advance} sequence, and the engine state at
    every punctuation boundary equals the per-event state — which is
    what makes mid-batch checkpoints recoverable
    ({!Fw_snap.Checkpoint}).  Per-node activation counts and sampled
    latency histograms may differ (fewer, larger activations).

    The batch is validated atomically against the watermark before any
    state changes: a late event anywhere in it raises {!Late_event}
    and leaves the executor untouched. *)

val advance : ?at_ns:int -> t -> int -> unit
(** Advance the watermark without an event (a punctuation): all
    instances ending at or before the time fire.  [at_ns] is the wall
    clock when the punctuation was issued (the sharding driver stamps
    it before enqueueing, so queue wait shows up in the fire-delay
    histograms); defaults to now when observing. *)

val close : t -> horizon:int -> Row.t list
(** Advance to the horizon, flush, and return all result rows emitted
    so far (sorted).  The executor must not be fed afterwards. *)

val run :
  ?metrics:Metrics.t ->
  ?mode:mode ->
  ?observe:bool ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  horizon:int ->
  Event.t list ->
  Row.t list
(** Convenience: create, feed all (sorted) events with [time < horizon],
    close. *)

(** {2 Snapshot support}

    A public, serializable mirror of every mutable cell of a running
    executor, consumed by the checkpoint subsystem ({!Fw_snap}).
    {!export} captures the state verbatim — pending instance states in
    firing order, the pane ring position, each per-key sliding queue's
    exact internal shape — and {!import} restores it onto the same
    (plan, mode): the restored executor's subsequent rows and metrics
    are byte-identical to the original's, float rounding included. *)

type node_export =
  | X_stateless  (** source / filter / multicast / union *)
  | X_win of {
      x_pending : (int * int * string * Fw_agg.Combine.state * int) list;
          (** (hi, lo, key, state, items folded), in firing order *)
      x_wm : int;
    }
  | X_pane of {
      x_cur_pane : int;
      x_p_wm : int;
      x_open_pane : Fw_agg.Pane.export;
      x_queues : (string * Fw_agg.Swag.export) list;  (** sorted by key *)
    }
  | X_cwin of {
      xc_keys : (string * int * (int * Fw_agg.Combine.state * int) list) list;
          (** (key, ordinal high-water, [(hi, state, items)] ascending),
              sorted by key *)
    }
  | X_session of {
      xs_open : (string * int * int * Fw_agg.Combine.state * int) list;
          (** open sessions (key, first, last, state, items), sorted by
              key *)
      xs_pending : (int * int * string * Fw_agg.Combine.state * int) list;
          (** rotated sessions awaiting their deadline
              (hi, lo, key, state, items), in firing order *)
      xs_wm : int;
    }

type export = {
  x_mode : mode;
  x_source_wm : int;
  x_rows : Row.t list;  (** rows emitted so far, in emission order *)
  x_nodes : node_export array;  (** same index as the plan's nodes *)
}

val export : ?rows:bool -> t -> export
(** Raises [Invalid_argument] on a closed executor.  [~rows:false]
    leaves [x_rows] empty — the checkpoint runtime persists rows
    incrementally to a side log instead of re-serializing the whole
    output on every snapshot, which would make checkpoints O(rows
    emitted so far). *)

val row_count : t -> int
(** Rows emitted so far (cheap); [row t i] reads the [i]-th in emission
    order.  Lets the checkpoint runtime drain newly-emitted rows after
    each feed without materializing the full list. *)

val row : t -> int -> Row.t

val import :
  ?metrics:Metrics.t ->
  ?observe:bool ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  export ->
  t
(** Rebuild an executor from an export.  The plan must be the one the
    export was taken from (the snapshot codec guards this with a plan
    fingerprint); raises [Invalid_argument] on a node-shape mismatch.
    Counters in [metrics] are {e not} restored here — the caller
    replays them (see {!Fw_snap.Recover}).  [spill] as in {!create};
    an export is always self-contained (spilled entries are re-absorbed
    at {!export} time), so recovery never reads spill files. *)

(** {2 Instance arithmetic}

    Exposed for boundary testing: which window instances an event or a
    sub-aggregate interval lands in is where off-by-one bugs live. *)

val instances_containing : Fw_window.Window.t -> int -> int list
(** Instance indices [m] of the window whose interval
    [[m·s, m·s + r)] contains the time — ascending.  Instances with
    negative indices do not exist, so a time [t < r] belongs to fewer
    than r/s instances (stream start ramp-up). *)

val instances_enclosing : Fw_window.Window.t -> lo:int -> hi:int -> int list
(** Instance indices of the window whose interval includes [[lo, hi)]
    {e entirely} — ascending; empty when [hi - lo > r].  Used to fold a
    sub-aggregate emission into every instance it is a fragment of. *)
