(** Trivially-correct reference evaluator.

    Computes every window aggregate straight from the window definition
    (Section 2.1: instance [m] of [W⟨r,s⟩] is [\[m·s, m·s + r)]): for
    each complete instance within the horizon, filter the raw events
    that fall inside it, group them by key and evaluate the aggregate
    over the plain value list — no sub-aggregate states, no merging, no
    slicing, no plans.  It shares {e no} execution code with the
    streaming executor or the slicing executor, which makes it the
    repo's one definition-level evaluator and the independent arbiter
    of the differential harness: every other path must reproduce its
    rows exactly (up to the documented floating-point tolerance of
    {!Row.equal_sets}). *)

val eval : Fw_agg.Aggregate.t -> float list -> float
(** Direct evaluation over a raw value list ([nan] for an empty MEDIAN;
    never called on empty lists by {!run}, which skips empty
    instances).  STDEV uses a two-pass mean/variance computation,
    deliberately different from the engine's single-pass Welford/Chan
    states. *)

val window_rows :
  Fw_agg.Aggregate.t ->
  Fw_window.Window.t ->
  horizon:int ->
  Event.t list ->
  Row.t list
(** Rows of one window; instances with no events produce no row. *)

val run :
  Fw_agg.Aggregate.t ->
  Fw_window.Window.t list ->
  horizon:int ->
  Event.t list ->
  Row.t list
(** All windows (deduplicated), rows sorted with {!Row.sort}. *)
