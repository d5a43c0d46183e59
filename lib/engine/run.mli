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
  ?metrics:Metrics.t ->
  ?mode:Stream_exec.mode ->
  ?trace:Fw_obs.Trace.t ->
  ?spill:Fw_spill.Pool.t ->
  Fw_plan.Plan.t ->
  horizon:int ->
  Event.t list ->
  report
(** Stream-execute a plan; [metrics] supplies the registry to record
    into (fresh by default) — pass one whose registry is already being
    served ({!Fw_obs.Scrape}) to watch the run live.  [trace] attaches
    a span trace before the executor is built so every activation is
    recorded.  [spill] runs the executor's keyed state under a memory
    budget (see {!Stream_exec.create}); the pool stays caller-owned. *)

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
