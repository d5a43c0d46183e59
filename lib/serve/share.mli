(** Cross-query sharing planner: when may several registered queries be
    served by {e one} engine over a merged plan?

    Queries are grouped by sharing {!key} — the aggregate function and
    the WHERE predicate — because a merged plan has a single source
    filter and a single combine function.  Within a group, a merged
    plan serves a member query soundly iff the {e chain condition}
    holds: every window of the member's standalone optimized plan is
    present in the group plan {e with the same input} (raw stream or
    the same upstream window).  Same input chain means the same items
    are folded in the same order, so each per-window emission — float
    rounding included — is byte-identical to the standalone run's; the
    member's output is then exactly the group rows filtered to its
    exposed windows.  Whenever the condition fails the server degrades
    to an independent engine and says why
    ([serve_share_degraded_total{reason}]). *)

type key = {
  agg : Fw_agg.Aggregate.t;
  filter : Fw_plan.Predicate.t option;
}

val key_of : Fw_sql.Analyze.analysis -> key
val key_equal : key -> key -> bool

val compatible :
  member:Fw_plan.Plan.t -> group:Fw_plan.Plan.t -> (unit, string) result
(** The chain condition, plus exposure: every window the member
    exposes must be exposed by the group plan.  The error names the
    first offending window. *)

val union_windows :
  Fw_window.Window.t list -> Fw_window.Window.t list -> Fw_window.Window.t list
(** Deduplicated union, left operand's order first. *)
