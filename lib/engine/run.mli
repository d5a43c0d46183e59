(** High-level execution helpers tying plans, the executor and the
    reference evaluator together. *)

type report = {
  rows : Row.t list;
  metrics : Metrics.t;
}

type saving = {
  window : Fw_window.Window.t;
  baseline_items : int;  (** items the first plan charged the window *)
  rewritten_items : int;  (** items the second plan charged it *)
}

type comparison = {
  baseline : report;  (** the first plan's run *)
  rewritten : report;  (** the second plan's run *)
  savings : saving list;
      (** per-operator delta over the union of both plans' windows,
          sorted; factor windows show up with [baseline_items = 0] *)
}

val saved : saving -> int
(** [baseline_items - rewritten_items]; negative for added work. *)

val execute :
  ?metrics:Metrics.t -> Fw_plan.Plan.t -> horizon:int -> Event.t list -> report
(** Stream-execute a plan event by event ({!Stream_exec.run}, Naive
    mode); [metrics] supplies the registry to record into (fresh by
    default). *)

val feed_stream :
  batch:int ->
  pace:(unit -> unit) ->
  skip:int ->
  ?stage:Reorder.t ->
  (Batch.t -> unit) ->
  horizon:int ->
  Event.t list ->
  unit
(** The one feed loop in front of a sink's [feed_batch]: hand it the
    events before [horizon] in columnar batches of [batch] events,
    after the first [skip] (the durable prefix a recovered sink already
    holds), calling [pace] after each event.  Without a [stage] the
    events must be time-ordered and are fed as they come.  With one
    they are arrivals in any order: the sink gets the stage's release —
    events in time order, a mark at each advance of its frontier, the
    stragglers it drops left out — and [skip] counts released events.
    Marks inside the skipped prefix are no-ops on a recovered sink, its
    watermark being past them.  [batch = 1] is byte-identical to
    per-event feeding; rows and cost-model counters are the same at any
    size. *)

val verify_against_naive :
  Fw_plan.Plan.t -> horizon:int -> Event.t list -> (unit, string) result
(** Run the plan and check its rows against {!Reference.run} over the
    plan's exposed windows and source-filtered events — the end-to-end
    correctness check for rewritten plans. *)

val per_window_savings : report -> report -> saving list
(** The per-operator delta between two reports, sorted by window. *)

val pp_savings : Format.formatter -> saving list -> unit

val compare_plans :
  Fw_plan.Plan.t ->
  Fw_plan.Plan.t ->
  horizon:int ->
  Event.t list ->
  (comparison, string) result
(** Execute two equivalent plans and fail if their row sets differ; on
    success return both reports plus the per-operator savings (where
    the computation went, window by window — not just the totals). *)
