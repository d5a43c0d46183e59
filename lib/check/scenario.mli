(** Random fuzzing scenarios: one (aggregate, window set, event stream,
    horizon) input drawn deterministically from a seed.

    Windows come from the paper's own generators (Algorithms 5 & 6 via
    {!Fw_workload.Set_gen}), events from {!Fw_workload.Event_gen}, the
    aggregate from the full {!Fw_agg.Aggregate.all} taxonomy — so every
    scenario is a workload the rest of the repository already claims to
    handle.  All randomness flows through {!Fw_util.Prng}: the same seed
    always rebuilds the same scenario ([fwfuzz --seed N --replay]). *)

type shape = Random_shape | Chain_shape | Star_shape

val shape_to_string : shape -> string

type gen_config = {
  max_windows : int;  (** windows per set drawn in [\[1, max_windows\]] *)
  eta_max : int;  (** event rate drawn in [\[1, eta_max\]] *)
  horizon_min : int;
  horizon_max : int;  (** horizon drawn in [\[horizon_min, horizon_max\]] *)
  period_bound : int;  (** window sets with a larger common period are rejected *)
  allow_holistic : bool;  (** include MEDIAN (naive-fallback path) *)
  non_aligned_prob : float;
      (** probability of mutating a set into non-aligned hopping windows
          ([s ∤ r]); these exercise the paired z₂ / paned gcd slicing
          paths that Algorithm 5's aligned output never reaches.  The
          optimizer paths and invariants are skipped for them (the cost
          model's footnote-4 assumption). *)
  family_prob : float;
      (** probability ([fwfuzz --family-prob]) of mutating a drawn set's
          window families: each window then independently stays a time
          hop, moves to the count domain with the same range/slide
          (coverage structure preserved over per-key event ordinals), or
          becomes a session window with a small gap.  [0.0] (the
          default) leaves every seed bit-identical to the pre-family
          generator. *)
  window_params : Fw_workload.Window_gen.params;
  batch_min : int;
  batch_max : int;
      (** batch size for the batched stacks drawn in
          [\[batch_min, batch_max\]] ([fwfuzz --batch-size-range]);
          the default range starts at 1 so the degenerate batch-of-1
          case stays reachable *)
  budget_min : int;
  budget_max : int;
      (** resident-state budget (bytes) for the spilled stacks
          drawn in [\[budget_min, budget_max\]] ([fwfuzz
          --budget-range]); a quarter of the draws pin [budget_min]
          (normally [0] — every touched key is evicted and faulted
          back) so the fully-out-of-core degenerate case stays common *)
}

val default_gen : gen_config

type t = {
  agg : Fw_agg.Aggregate.t;
  windows : Fw_window.Window.t list;
  eta : int;
  horizon : int;
  events : Fw_engine.Event.t list;  (** time-ordered *)
  shape : shape;
  tumbling : bool;
  batch : int;
      (** nominal batch size for the batched stacks; the
          deterministic partitioning in {!Paths} draws per-batch sizes
          in [\[1, batch\]], so punctuation-straddling and single-event
          batches both occur.  Shrunk toward 1 on failure. *)
  budget : int;
      (** resident-state budget in bytes for the spilled stacks'
          {!Fw_spill.Pool}; [0] forces every key through the spill
          file.  Shrunk toward 0 on failure (a smaller budget spills
          more, keeping the out-of-core machinery in the shrunk
          repro). *)
}

val draw : Fw_util.Prng.t -> gen_config -> t
(** Consumes the generator (see {!Fw_util.Prng.split}). *)

val of_seed : gen_config -> int -> t
(** [draw] from a fresh PRNG seeded with [seed]. *)

val aligned : t -> bool
(** All windows satisfy [s | r] — the precondition for the cost model
    and therefore for the optimizer paths and invariants. *)

val summary : t -> string
(** One-line description (window set, aggregate, stream size). *)

val pp : Format.formatter -> t -> unit

val to_repro : t -> string
(** Self-contained multi-line repro: aggregate, windows, eta, horizon
    and the full event list — enough to reconstruct the scenario in a
    regression test without the generators. *)
