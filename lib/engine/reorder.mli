(** Bounded-lateness reordering: a stage in front of any sink.

    Every sink's {!Stream_exec.feed_batch} requires time-ordered input;
    real streams are not.  The stage holds arrivals back until the
    released frontier — the maximum event time seen, minus an {e
    allowed lateness} — passes them, and releases them into a caller's
    {!Batch.t} in timestamp order (arrival order among equal times),
    with a punctuation mark at each advance of the frontier.  Arrivals
    behind the frontier are dropped and counted rather than crashing
    the pipeline (the usual engine policy for late data).  The stage
    holds no executor: what it releases is an ordered stream plus
    watermarks, for whichever sink the caller feeds. *)

type t

type stats = {
  buffered_peak : int;  (** high-water mark of the buffer *)
  released : int;
  dropped_late : int;
}

val create : ?registry:Fw_obs.Registry.t -> lateness:int -> unit -> t
(** [lateness] is the slack (in ticks) granted to stragglers; [0] means
    input must already be ordered.  Raises [Invalid_argument] on
    negative lateness.

    The stage publishes its statistics into [registry] (a private one
    by default) as it runs — [reorder_released_total],
    [reorder_dropped_late_total] (counters) and [reorder_buffered_peak]
    (gauge) — so late-data behavior appears in [--stats] exports
    alongside the engine's per-node metrics. *)

val push : t -> Batch.t -> Event.t -> unit
(** [push t out e] accepts one arrival, in any order within the
    lateness bound.  If it advances the frontier to [f], every buffered
    event older than [f] is appended to [out] in time order, followed
    by the mark [f]: no event released later is older than a mark. *)

val flush : t -> Batch.t -> unit
(** End of stream: append everything still buffered to [out], in time
    order, with no mark (the sink's close advances to the horizon). *)

val stats : t -> stats
