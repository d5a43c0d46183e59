(** Bounded-lateness reordering in front of the executor.

    {!Stream_exec} requires time-ordered input; real streams are not.
    The reorder buffer holds events back until the watermark — the
    maximum event time seen, minus an {e allowed lateness} — passes
    them, releasing them in timestamp order.  Events arriving behind
    the already-released frontier are dropped and counted rather than
    crashing the pipeline (the usual engine policy for late data). *)

type t

type stats = {
  buffered_peak : int;  (** high-water mark of the buffer *)
  released : int;
  dropped_late : int;
}

val create :
  lateness:int ->
  ?mode:Stream_exec.mode ->
  ?observe:bool ->
  Fw_plan.Plan.t ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [lateness] is the slack (in ticks) granted to stragglers; [0] means
    input must already be ordered.  [mode] selects the wrapped
    executor's engine (defaults to {!Stream_exec.Naive}, like
    {!Stream_exec.create}).  Raises [Invalid_argument] on negative
    lateness or an invalid plan.

    Unless [~observe:false], the buffer publishes its statistics into
    the metrics registry as it runs — [reorder_released_total],
    [reorder_dropped_late_total] (counters) and [reorder_buffered_peak]
    (gauge) — so late-data behavior appears in [--stats] exports
    alongside the engine's per-node metrics.  The toggle also reaches
    the wrapped executor. *)

val feed : t -> Event.t -> unit
(** Accepts events in any order within the lateness bound. *)

val close : t -> horizon:int -> Row.t list * stats
(** Flush the buffer, close the executor, return rows and statistics. *)

val run :
  lateness:int ->
  ?mode:Stream_exec.mode ->
  ?observe:bool ->
  ?metrics:Metrics.t ->
  Fw_plan.Plan.t ->
  horizon:int ->
  Event.t list ->
  Row.t list * stats
(** Convenience wrapper over [create]/[feed]/[close]. *)
