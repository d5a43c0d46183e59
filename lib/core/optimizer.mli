(** Top-level optimizer façade.

    Library users who do not need the intermediate artifacts can stay
    within this module: give it an aggregate function and a window set
    (or a query string) and get back plans, costs and renderings.  The
    paper's pipeline is: window set → WCG → min-cost WCG (Algorithm 1,
    plus factor windows via Algorithm 2, keeping the better of the two,
    Section 4.3) → rewritten operator plan (Section 3.3). *)

type t = {
  agg : Fw_agg.Aggregate.t;
  windows : Fw_window.Window.t list;
  eta : int;
  outcome : Fw_plan.Rewrite.outcome;
}

val optimize :
  ?eta:int ->
  ?factor_windows:bool ->
  Fw_agg.Aggregate.t ->
  Fw_window.Window.t list ->
  t
(** [eta] defaults to 1; [factor_windows] to [true]. *)

val of_query : ?eta:int -> ?factor_windows:bool -> string -> (t, string) result
(** Parse and optimize an ASA-like SQL query (see {!Fw_sql}). *)

val optimized_plan : t -> Fw_plan.Plan.t
val naive_plan : t -> Fw_plan.Plan.t

val optimized_cost : t -> int option
(** Model cost of the chosen plan; [None] for holistic aggregates. *)

val naive_cost : t -> int option
val improvement_percent : t -> float option

val trill : t -> string
(** The rewritten plan as a Trill-style expression (Figure 2(b)). *)

val explain : t -> string
(** Human-readable optimization report. *)

val execute :
  ?metrics:Fw_engine.Metrics.t ->
  t ->
  horizon:int ->
  Fw_engine.Event.t list ->
  Fw_engine.Run.report
(** Run the optimized plan on events ({!Fw_engine.Run.execute});
    [metrics] supplies the recording registry (fresh by default). *)

val verify :
  t -> horizon:int -> Fw_engine.Event.t list -> (unit, string) result
(** Execute both plans and check that they produce identical rows. *)
