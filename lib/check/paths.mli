(** The independent execution paths the differential harness compares.

    Every path consumes the same (aggregate, windows, horizon, events)
    scenario and must produce the same row multiset:

    - {!Reference}: the definition-level evaluator
      ({!Fw_engine.Reference});
    - {!Sliced}: the executable paned [Li et al. 2005] / paired
      [Krishnamurthy et al. 2006] baselines, shared and unshared
      ({!Fw_slicing.Exec});
    - {!Stack}: a plan through the production stack, composed from
      five orthogonal dimensions:
      {ul
      {- [plan] — the unrewritten plan ([Naive_plan]), or the
         min-cost-WCG plan with factor windows (Algorithm 1 +
         Algorithm 2, Section 4.3 best-of) or without (plain
         Algorithm 1), whose window-fed operators consume their
         parents' sub-aggregates ([Rewritten]);}
      {- [sink] — what drives the run: the {!Fw_engine.Stream_exec}
         executor itself ([Engine]), a checkpointing pipeline killed
         mid-stream by an injected fault — sometimes with a torn
         snapshot write — then recovered from disk and finished
         ([Checkpointed], {!Fw_snap}), or one in-process query server
         holding overlapping sub-queries of the window set as SQL
         ([Served], {!Fw_serve.Server}).  Crash-restart and serving
         each own the run, so they are one field and cannot combine;}
      {- [mode] — naive per-instance or pane-based incremental
         execution;}
      {- [batched] — ingestion through [feed_batch] under the
         scenario's deterministic batch geometry
         ({!batches_of_events}), with punctuation marks injected inside
         batches, instead of per-event [feed];}
      {- [spilled] — every operator's per-key state held under the
         scenario's memory budget, cold entries evicted to a spill file
         and faulted back on touch, one {!Fw_spill.Pool} per simulated
         process.}}

    Beyond the harness's tolerant row comparison, every stack but the
    plain engine run insists on {e byte-identical} rows and exactly
    equal cost-model counters ([Metrics.ingested],
    [Metrics.per_window]) against the plain per-event engine run of the
    same plan and mode, and raises otherwise.  [Served] instead insists that
    every registered query's tap is byte-identical to an independent
    single-query run of its own text in the same mode: cross-query
    sharing (or its degrade) must never change a float bit of anyone's
    answer. *)

type sink = Engine | Checkpointed | Served
type plan = Naive_plan | Rewritten of { factor_windows : bool }

type path =
  | Reference
  | Sliced of Fw_slicing.Exec.mode * Fw_slicing.Exec.slicing
  | Stack of {
      plan : plan;
      sink : sink;
      mode : Fw_engine.Stream_exec.mode;
      batched : bool;
      spilled : bool;
    }

val all : path list
(** Every path some scenario can run, reference first: each
    combination of the stack dimensions appears once, except the
    [Served] stacks with [batched], [spilled] or a [Rewritten] plan,
    which no scenario can run (see {!applicable}): the server compiles
    its own SQL into a rewritten plan, so a served stack is listed
    once per mode, with [plan = Naive_plan]. *)

val name : path -> string
(** Stable identifier used in reports ("reference", "shared-paired",
    ...).  A stack is named [SINK-MODE], then [-batched] and
    [-spilled] when set, then [-rewritten] or [-rewritten-no-factor]
    on a rewritten plan: "engine-naive", "engine-naive-rewritten",
    "checkpointed-incremental-batched-spilled-rewritten-no-factor". *)

val applicable : path -> Scenario.t -> bool
(** Whether the path supports the scenario.  The slicing paths have no
    session geometry.  The served stacks cannot register non-aligned
    hops (the SQL front's analyze gate rejects them), and never run
    batched — the server ingests plain event lists without punctuation
    marks — or spilled — its memory budget has a 64 KiB floor per
    sharing group that the drawn budgets (0–64 KiB by default) do not
    clear — or on a [Rewritten] plan: the server picks its own.  All
    other paths accept any window set. *)

val rows : path -> Scenario.t -> (Fw_engine.Row.t list, string) result
(** Execute one path; [Error] carries the exception text if the path
    crashed or broke its byte-identity check (a crash is a finding too,
    not a harness failure). *)

(** {2 Crash-restart internals (shared with {!Artifacts})} *)

type crash_params = {
  every : int;  (** checkpoint cadence of the injected run *)
  crash_at : int;  (** event ordinal at which the process dies *)
  torn_bytes : int option;
      (** when set, the newest snapshot loses this many tail bytes *)
}

val crash_params : Scenario.t -> crash_params
(** Crash geometry, derived deterministically from the scenario text so
    shrunk or replayed scenarios reproduce the identical crash. *)

type first_outcome = Crashed | Completed of Fw_snap.Checkpoint.t

val crash_first_process :
  ?batched:bool ->
  ?spill:Fw_spill.Pool.t ->
  dir:string ->
  plan:plan ->
  Fw_engine.Stream_exec.mode ->
  Scenario.t ->
  first_outcome
(** Run the pre-crash process of [plan] into [dir] under the
    scenario's fault plan.  On [Crashed], [dir] holds exactly what the dead process
    left behind — {!Artifacts} copies it next to the repro.
    [batched] (default [false]) ingests via
    {!Fw_snap.Checkpoint.feed_batch} under the scenario's batch
    geometry instead of per-event {!Fw_snap.Checkpoint.feed}.
    [spill] runs the process under a memory budget; the pool is
    scratch, abandoned on the simulated death. *)

(** {2 Batch geometry (shared with tests)} *)

val batches_of_events :
  hash:int -> batch:int -> Fw_engine.Event.t list -> Fw_engine.Batch.t list
(** Deterministically partition a time-ordered event list into columnar
    batches with sizes in [\[1, batch\]] and punctuation marks injected
    between distinct event times — some stale (equal to the previous
    time), some live (inside the gap), none making a later event late. *)
