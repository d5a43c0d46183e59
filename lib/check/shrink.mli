(** Counterexample minimization.

    [still_fails candidate] must re-run the failing property on the
    candidate and return [true] if it still fails; shrinking keeps the
    smallest candidate that does.  The shrinkers are deterministic, so
    a minimized repro is stable across runs. *)

val shrink_list : ('a list -> bool) -> 'a list -> 'a list
(** ddmin-style minimization: bisection first (try each half), then
    complements of progressively finer chunks, restarting whenever a
    removal sticks.  Returns a locally-minimal failing list. *)

val events :
  (Fw_engine.Event.t list -> bool) ->
  Fw_engine.Event.t list ->
  Fw_engine.Event.t list
(** {!shrink_list} on the event stream (order is preserved, so the
    result is still time-sorted). *)

val windows :
  (Fw_window.Window.t list -> bool) ->
  Fw_window.Window.t list ->
  Fw_window.Window.t list
(** Greedy single-window removal to a fixpoint; never empties the set. *)

val families :
  (Fw_window.Window.t list -> bool) ->
  Fw_window.Window.t list ->
  Fw_window.Window.t list
(** Family degradation to a fixpoint: replace count hops by their
    same-geometry time hops and session windows by tumbling windows of
    the gap wherever the failure survives, so a shrunk repro carries a
    non-time family only when the family itself matters. *)

val batch : (int -> bool) -> int -> int
(** Smallest batch size in [\[1, n\]] that still fails; reaching 1 means
    the failure survives per-event-sized batches and is not about
    batching at all. *)

val budget : (int -> bool) -> int -> int
(** Smallest memory budget in [\[0, n\]] that still fails, trying 0
    first and then doubling up from 1.  Reaching 0 — every touched key
    evicted and faulted back — keeps the out-of-core machinery in the
    repro while removing partial-residency clock behaviour from it. *)

val scenario : (Scenario.t -> bool) -> Scenario.t -> Scenario.t
(** Full pipeline: shrink the event stream, then the window set
    (removal, then family degradation), then the events once more (a
    smaller window set often unlocks further stream reduction), then
    the batch size and memory budget. *)
