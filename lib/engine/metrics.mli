(** Execution metrics: the engine's window counters (the cost model's
    quantity) plus the {!Fw_obs} registry they live in.

    The paper's cost model counts the items each window instance
    processes; the engine increments {!record} once per (item, instance)
    insertion, so after a run over exactly one common period the
    per-window counters can be compared with the analytic costs of
    {!Fw_wcg.Cost_model} (see the [validate] bench section).

    Since the observability layer landed, a [Metrics.t] is a facade
    over an {!Fw_obs.Registry.t}: the legacy window counters, the
    per-node operator statistics and the incremental-mode fallback
    counters are all registry cells, so one {!snapshot_json} or
    {!prometheus} call exports everything the run recorded. *)

type t

(** Per-operator statistics, one per plan node.  The cells are plain
    registry handles; the executor updates them with O(1) field
    increments, and samples activation latencies into [fire_ns]
    (1-in-16 unless a trace is attached, see {!Stream_exec}). *)
type node_stats = {
  rows_in : Fw_obs.Counter.t;  (** items delivered to the node *)
  rows_out : Fw_obs.Counter.t;  (** items the node forwarded / emitted *)
  fires : Fw_obs.Counter.t;  (** window instances fired *)
  pane_flushes : Fw_obs.Counter.t;  (** pane mode: panes sealed *)
  swag_evictions : Fw_obs.Counter.t;  (** pane mode: queue entries evicted *)
  fire_ns : Fw_obs.Histogram.t;  (** sampled activation latency *)
  fire_delay_ns : Fw_obs.Histogram.t;
      (** sampled wall-clock delay from the triggering watermark
          broadcast to the activation *)
  mutable activations : int;  (** activation count, drives sampling *)
}

val create : unit -> t

(* --- legacy counter API (contract pinned by test_engine) ----------- *)

val record : t -> Fw_window.Window.t -> int -> unit
(** [record m w n] adds [n] processed items to window [w]. *)

type items
(** Window [w]'s processed-items counter, resolved once. *)

val items : t -> Fw_window.Window.t -> items
(** The handle a window operator keeps, so that it records each fire
    without a lookup by window.  Nothing is registered until the first
    {!add_items}, so the exported series are those of {!record}. *)

val add_items : items -> int -> unit
(** [add_items (items m w) n] is [record m w n]. *)

val record_ingest : t -> int -> unit

val record_watermark : t -> wm:int -> at_ns:int -> unit
(** Publish watermark progress: sets the [engine_watermark_ticks]
    gauge to [wm] and [engine_watermark_advance_ts_ns] to [at_ns] (a
    wall-clock stamp).  A {!Fw_obs.Meter} sampling the registry turns
    the latter into [engine_watermark_lag_ns].  The executor calls
    this on every watermark broadcast when observing. *)

val processed : t -> Fw_window.Window.t -> int
(** Per contract, [0] for windows never recorded — callers comparing
    against the cost model probe windows that cheap plans never charge
    (e.g. factor windows absent from the naive plan), and a lookup
    must not raise there. *)

val total_processed : t -> int
val ingested : t -> int

val per_window : t -> (Fw_window.Window.t * int) list
(** Sorted by window. *)

val pp : Format.formatter -> t -> unit
(** Stable rendering: ingested first, then one line per window sorted
    by {!Fw_window.Window.compare}, then the total — golden-testable. *)

(* --- observability layer ------------------------------------------- *)

val registry : t -> Fw_obs.Registry.t

val node :
  t -> id:int -> kind:string -> ?window:Fw_window.Window.t -> unit -> node_stats
(** Register (or retrieve) the per-operator stats of plan node [id].
    [kind] is the operator kind label ([source], [filter], [multicast],
    [union], [win-naive], [win-pane]). *)

val record_fallback :
  t -> id:int -> window:Fw_window.Window.t -> reason:string -> unit
(** Count an incremental-mode node falling back to the per-instance
    path, labelled with the reason. *)

val fallbacks : t -> (int * string * string * int) list
(** [(node, window, reason, count)] for every fallback recorded,
    sorted. *)

val set_trace : t -> Fw_obs.Trace.t -> unit
(** Attach a span trace.  Attach it {e before} creating the executor:
    the executor reads it once at construction to pick its sampling
    rate. *)

val trace : t -> Fw_obs.Trace.t option

val snapshot_json : t -> string
(** Full JSON snapshot: every registry metric plus the trace when one
    is attached. *)

val prometheus : t -> string
(** Prometheus text exposition of the registry. *)
