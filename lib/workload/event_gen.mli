(** Synthetic event streams (Section 5.2 data generation).

    The cost model assumes a steady rate of [η] events per tick;
    {!steady} produces exactly that (the stream the [validate] bench
    uses to confront measured counters with the model).  {!varied}
    draws a per-tick rate uniformly from [\[1, eta_max\]], matching the
    paper's "various input event rate" data generator.

    Keys are drawn {!Uniform}ly by default; {!Zipf} skews the draw so
    the first keys of the pool dominate ([fwopt run --key-skew]), a
    stream whose per-key state is far from evenly spread. *)

type key_dist =
  | Uniform
  | Zipf of float
      (** [Zipf s] weights the i-th key (1-based) by [1/i^s];
          [Zipf 0.] is uniform, [s ≈ 1] the classic web-traffic skew. *)

type config = {
  keys : string list;  (** grouping keys, e.g. device ids *)
  value_min : float;
  value_max : float;
  key_dist : key_dist;
}

val default_config : config
(** Four device keys, values in [\[0, 100)], uniform keys. *)

val key_pool : int -> string list
(** [key_pool n] is [n] synthetic device keys ([device-001] ...), for
    key-heavy workloads (far more keys than the default four). *)

val steady :
  Fw_util.Prng.t -> config -> eta:int -> horizon:int -> Fw_engine.Event.t list
(** [eta] events at every tick in [\[0, horizon)], keys drawn from
    [config.key_dist], time-ordered. *)

val varied :
  Fw_util.Prng.t -> config -> eta_max:int -> horizon:int -> Fw_engine.Event.t list
(** Per-tick rate uniform in [\[1, eta_max\]]. *)

val spiky :
  Fw_util.Prng.t ->
  config ->
  eta:int ->
  spike_every:int ->
  spike_factor:int ->
  horizon:int ->
  Fw_engine.Event.t list
(** Steady rate with periodic bursts — failure-injection style load for
    engine tests. *)
