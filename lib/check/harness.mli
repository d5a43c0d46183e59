(** The fuzzing campaign driver.

    One iteration = one {!Scenario} drawn from one seed, checked by
    {!Differential.check} (row equality of all execution paths) and
    {!Invariants.check} (structural/metamorphic properties).  Failing
    scenarios are minimized with {!Shrink.scenario} — events by
    bisection/ddmin, then windows by greedy removal — and reported with
    a self-contained repro plus the [fwfuzz --replay --seed N] one-liner
    that rebuilds the unshrunk scenario. *)

type problem = {
  source : string;  (** path name or invariant name *)
  detail : string;
}

type failure = {
  seed : int;
  scenario : Scenario.t;  (** as drawn from [seed] *)
  problems : problem list;  (** what failed on the original scenario *)
  shrunk : Scenario.t;  (** minimized counterexample *)
  shrunk_problems : problem list;  (** what still fails after shrinking *)
}

type config = {
  iterations : int;
  base_seed : int;  (** iteration [i] uses seed [base_seed + i] *)
  gen : Scenario.gen_config;
  invariants : bool;  (** also run {!Invariants.check} *)
  incremental_prob : float;
      (** probability that a seed's iteration also runs the stacks in
          incremental engine mode ({!Paths.Stack} with [mode =
          Incremental]); decided deterministically per seed so replays
          match.  Defaults to [1.0]. *)
  crash_prob : float;
      (** probability that a seed's iteration also runs the
          [Checkpointed] stacks — killed, recovered from disk,
          finished, compared.  [0.0] (the default) skips them: each one
          costs three executions plus checkpoint I/O.  Same per-seed
          determinism, on an independent coin. *)
  batch_prob : float;
      (** probability that a seed's iteration also runs the [batched]
          stacks, ingesting through [feed_batch] under the scenario's
          batch geometry.  Defaults to [1.0]: the batched engine stacks
          cost two extra in-process executions, cheap enough to always
          difference. *)
  serve_prob : float;
      (** probability that a seed's iteration also runs the [Served]
          stacks — overlapping sub-queries registered as SQL with an
          in-process query server, every tap byte-compared against an
          independent single-query run.  [0.0] (the default) skips
          them.  Same per-seed determinism, its own coin. *)
  spill_prob : float;
      (** probability that a seed's iteration also runs the [spilled]
          stacks — each plan under the scenario's memory budget
          (drawn in [\[budget_min, budget_max\]], often 0).  [0.0] (the
          default) skips them: they cost spill-file I/O per scenario.
          Same per-seed determinism, its own coin.

          A stack runs only when the coin of every dimension it uses
          lands: e.g. a checkpointed, batched, spilled stack needs the
          crash, batch and spill coins (and the incremental coin in
          incremental mode).  The plan dimension has no coin: the
          stacks on the rewritten plans ({!Paths.Stack} with [plan =
          Rewritten _], factor windows on and off) run whenever the
          same stack on the unrewritten plan does, so window-fed
          operators go through every sink, mode, batching and budget
          the other coins select. *)
  max_failures : int;  (** stop the campaign after this many failures *)
}

val default_config : config
(** 1000 iterations, base seed 42, invariants on, incremental and
    batched stacks always on, checkpointed, served and spilled stacks
    off, stop after 5 failures. *)

type outcome = { checked : int; failures : failure list }

val paths_for : config -> int -> Paths.path list
(** The paths {!check_seed} runs for this seed under the config's
    probabilities, before per-scenario {!Paths.applicable} gating. *)

val check_seed : config -> int -> (Scenario.t, failure) result
(** Check a single seed, drawn from the config's [gen], with its
    invariants switch and probabilities ([iterations], [base_seed] and
    [max_failures] are not read); [Ok] returns the (clean) scenario so
    replay tooling can describe it. *)

val run : ?progress:(int -> unit) -> config -> outcome
(** Run the campaign; [progress] is called after each iteration with
    the number of scenarios checked so far. *)

val pp_problem : Format.formatter -> problem -> unit
val pp_failure : Format.formatter -> failure -> unit
