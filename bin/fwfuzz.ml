(* fwfuzz: differential and metamorphic fuzzer for the factor-windows
   stack.

   Each iteration draws one random (aggregate, window set, event
   stream, horizon) scenario from a seed and runs it through the
   reference evaluator, paned/paired slicing shared/unshared, and the
   production stack composed from five dimensions: the plan (the
   unrewritten one, and the rewritten ones with and without factor
   windows, always on), the sink driving the run (the
   engine itself, --crash-prob: a checkpointing pipeline killed
   mid-stream and recovered from disk, --serve-prob: an in-process query
   server),
   the engine mode (--incremental-prob: pane-based incremental as well
   as naive), batched ingestion (--batch-prob, on by default:
   feed_batch under scenario-drawn batch sizes with punctuation marks
   injected mid-batch) and an out-of-core memory budget (--spill-prob:
   cold per-key state spilled to disk and faulted back).  A stack runs
   when the coin of every dimension it uses lands, and must reproduce
   the plain per-event run of its plan and mode byte for byte, cost counters
   included (a served stack, each query's standalone run).  Every path must agree row-for-row with the reference,
   and the structural invariants (Theorem 7 forest shape, cost
   monotonicity, plan validation, metrics-vs-cost-model exactness) must
   hold.  --family-prob mutates drawn window sets across window
   families (count/ROWS hops, session windows).  Failures are shrunk to
   a minimal repro (batch size, window family and memory budget
   included) and reported with the one-line replay command.

   Exit status: 0 = no discrepancy, 1 = discrepancies found. *)

open Cmdliner
module Scenario = Fw_check.Scenario
module Harness = Fw_check.Harness
module Paths = Fw_check.Paths

let iterations_arg =
  let doc = "Number of scenarios to check (seeds SEED .. SEED+N-1)." in
  Arg.(value & opt int 1000 & info [ "iterations"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Base PRNG seed; iteration I uses seed SEED+I, counting from 0." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let replay_arg =
  let doc =
    "Replay exactly one scenario (the one derived from --seed) and print \
     its full diagnosis instead of running a campaign."
  in
  Arg.(value & flag & info [ "replay" ] ~doc)

let max_windows_arg =
  let doc = "Largest window-set size drawn per scenario." in
  Arg.(value & opt int Scenario.default_gen.Scenario.max_windows
       & info [ "max-windows" ] ~docv:"K" ~doc)

let eta_max_arg =
  let doc = "Largest event rate drawn per scenario." in
  Arg.(value & opt int Scenario.default_gen.Scenario.eta_max
       & info [ "eta-max" ] ~docv:"E" ~doc)

let horizon_max_arg =
  let doc = "Largest horizon (ticks) drawn per scenario." in
  Arg.(value & opt int Scenario.default_gen.Scenario.horizon_max
       & info [ "horizon-max" ] ~docv:"T" ~doc)

let no_invariants_arg =
  let doc = "Only run the differential row comparison, skip the structural \
             invariants." in
  Arg.(value & flag & info [ "no-invariants" ] ~doc)

let no_holistic_arg =
  let doc = "Exclude holistic aggregates (MEDIAN) from the draw." in
  Arg.(value & flag & info [ "no-holistic" ] ~doc)

let incremental_prob_arg =
  let doc =
    "Probability that an iteration also runs every selected stack in the \
     incremental (pane-based) engine mode.  Decided deterministically per \
     seed, so replays match the campaign."
  in
  Arg.(value & opt float 1.0
       & info [ "incremental-prob" ] ~docv:"P" ~doc)

let crash_prob_arg =
  let doc =
    "Probability that an iteration also runs the checkpointed stacks: the \
     checkpointing pipeline is killed at a scenario-derived event (sometimes \
     with a torn snapshot write), recovered from disk, finished, and its \
     rows and counters compared byte-for-byte with an uninterrupted run.  \
     Decided deterministically per seed, so replays match the campaign."
  in
  Arg.(value & opt float 0.0 & info [ "crash-prob" ] ~docv:"P" ~doc)

let batch_prob_arg =
  let doc =
    "Probability that an iteration also runs the batched stacks: the \
     stream pushed through the vectorized feed_batch entry point of every \
     selected sink, byte-compared against the per-event run.  Decided \
     deterministically per seed, so replays match the campaign."
  in
  Arg.(value & opt float 1.0 & info [ "batch-prob" ] ~docv:"P" ~doc)

let serve_prob_arg =
  let doc =
    "Probability that an iteration also runs the served stacks: overlapping \
     sub-queries of the scenario's window set registered as SQL with one \
     in-process query server, fed the shared stream once, every query's \
     tap byte-compared against an independent single-query run of its own \
     text.  Decided deterministically per seed, so replays match the \
     campaign."
  in
  Arg.(value & opt float 0.0 & info [ "serve-prob" ] ~docv:"P" ~doc)

let spill_prob_arg =
  let doc =
    "Probability that an iteration also runs the spilled stacks: the naive \
     plan executed under the scenario's memory budget (drawn from \
     --budget-range), cold per-key state evicted to an on-disk spill file \
     and faulted back on touch, byte-compared against unbudgeted runs.  \
     Decided deterministically per seed, so replays match the campaign."
  in
  Arg.(value & opt float 0.0 & info [ "spill-prob" ] ~docv:"P" ~doc)

let family_prob_arg =
  let doc =
    "Probability that a scenario's drawn window set is mutated across \
     window families: each window then independently stays a time hop, \
     becomes a count (ROWS) hop with the same range/slide, or becomes a \
     session window with a small gap.  0 (the default) draws pure \
     time-domain scenarios, bit-identical to earlier generator versions; \
     shrinking degrades count/session windows back toward time windows, \
     so surviving families are load-bearing."
  in
  Arg.(value & opt float 0.0 & info [ "family-prob" ] ~docv:"P" ~doc)

let batch_size_range_arg =
  let doc =
    "Range LO,HI the per-scenario nominal batch size is drawn from; the \
     deterministic partitioning then draws each batch's size in [1, \
     nominal], so size-1 batches stay reachable from any range."
  in
  Arg.(value & opt string "1,16"
       & info [ "batch-size-range" ] ~docv:"LO,HI" ~doc)

let budget_range_arg =
  let doc =
    "Range LO,HI (bytes) the per-scenario memory budget for the spilled \
     stacks is drawn from; a quarter of the draws pin LO regardless, so with \
     the default 0,65536 the budget-0 degenerate case (every touched key \
     round-trips through the spill file) stays common."
  in
  Arg.(value & opt string "0,65536"
       & info [ "budget-range" ] ~docv:"LO,HI" ~doc)

let max_failures_arg =
  let doc = "Stop the campaign after this many failures." in
  Arg.(value & opt int 5 & info [ "max-failures" ] ~docv:"F" ~doc)

let quiet_arg =
  let doc = "Suppress progress output." in
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc)

let artifacts_arg =
  let doc =
    "On failure, write the shrunk repro and a metrics/trace snapshot of \
     the failing scenario (naive and incremental engine runs) into \
     $(docv) as seed-N-repro.txt / seed-N-metrics.json."
  in
  Arg.(value & opt (some string) None & info [ "artifacts" ] ~docv:"DIR" ~doc)

let gen_config max_windows eta_max horizon_max no_holistic ~family_prob
    ~batch_min ~batch_max ~budget_min ~budget_max =
  {
    Scenario.default_gen with
    Scenario.max_windows;
    eta_max;
    horizon_max;
    allow_holistic = not no_holistic;
    family_prob;
    batch_min;
    batch_max;
    budget_min;
    budget_max;
  }

let dump_artifacts artifacts failure =
  match artifacts with
  | None -> ()
  | Some dir -> (
      match Fw_check.Artifacts.dump ~dir failure with
      | Ok files ->
          List.iter (fun f -> Printf.printf "artifact: %s\n" f) files
      | Error e -> Printf.eprintf "fwfuzz: artifact dump failed: %s\n" e)

let replay cfg ~artifacts seed =
  match Harness.check_seed cfg seed with
  | Ok sc ->
      Printf.printf "seed %d: %s\n" seed (Scenario.summary sc);
      List.iter
        (fun path ->
          if not (Paths.applicable path sc) then
            Printf.printf "  %-60s skipped (inapplicable window family)\n"
              (Paths.name path)
          else
            match Paths.rows path sc with
            | Ok rows ->
                Printf.printf "  %-60s %d rows\n" (Paths.name path)
                  (List.length rows)
            | Error e ->
                Printf.printf "  %-60s CRASH: %s\n" (Paths.name path) e)
        (Harness.paths_for cfg seed);
      Printf.printf "OK: all paths agree, all invariants hold.\n";
      0
  | Error failure ->
      Format.printf "%a@." Harness.pp_failure failure;
      dump_artifacts artifacts failure;
      1

let campaign (cfg : Harness.config) ~quiet ~artifacts =
  let iterations = cfg.iterations and base_seed = cfg.base_seed in
  let progress =
    if quiet then None
    else
      Some
        (fun i ->
          if i mod 200 = 0 then (
            Printf.printf "  ... %d/%d scenarios checked\n" i iterations;
            flush stdout))
  in
  if not quiet then
    Printf.printf
      "fwfuzz: %d scenarios, seeds %d..%d, up to %d execution paths%s\n"
      iterations
      base_seed
      (base_seed + iterations - 1)
      (List.length Paths.all)
      (if cfg.invariants then " + invariants" else "");
  let outcome = Harness.run ?progress cfg in
  match outcome.Harness.failures with
  | [] ->
      Printf.printf
        "fwfuzz: %d scenarios checked, zero discrepancies across all paths.\n"
        outcome.Harness.checked;
      0
  | failures ->
      Printf.printf "fwfuzz: %d scenarios checked, %d FAILURE(S):\n"
        outcome.Harness.checked (List.length failures);
      List.iter
        (fun f ->
          Format.printf "%a@.@." Harness.pp_failure f;
          dump_artifacts artifacts f)
        failures;
      1

let main iterations seed do_replay max_windows eta_max horizon_max
    no_invariants no_holistic incremental_prob crash_prob batch_prob
    serve_prob spill_prob family_prob batch_size_range
    budget_range max_failures quiet artifacts =
  let bad name v =
    Printf.eprintf "fwfuzz: %s must be positive (got %d)\n" name v;
    exit 124
  in
  if iterations < 0 then bad "--iterations" iterations;
  if max_windows < 1 then bad "--max-windows" max_windows;
  if eta_max < 1 then bad "--eta-max" eta_max;
  if horizon_max < 1 then bad "--horizon-max" horizon_max;
  if max_failures < 1 then bad "--max-failures" max_failures;
  List.iter
    (fun (flag, p) ->
      if p < 0.0 || p > 1.0 then begin
        Printf.eprintf "fwfuzz: %s must be in [0, 1] (got %g)\n" flag p;
        exit 124
      end)
    [
      ("--incremental-prob", incremental_prob);
      ("--crash-prob", crash_prob);
      ("--batch-prob", batch_prob);
      ("--serve-prob", serve_prob);
      ("--spill-prob", spill_prob);
      ("--family-prob", family_prob);
    ];
  let range flag ~lo_min text =
    let fail () =
      Printf.eprintf
        "fwfuzz: %s must be LO,HI with %d <= LO <= HI (got %S)\n" flag lo_min
        text;
      exit 124
    in
    match String.split_on_char ',' text with
    | [ lo; hi ] -> (
        match (int_of_string_opt (String.trim lo),
               int_of_string_opt (String.trim hi)) with
        | Some lo, Some hi when lo_min <= lo && lo <= hi -> (lo, hi)
        | _ -> fail ())
    | _ -> fail ()
  in
  let batch_min, batch_max =
    range "--batch-size-range" ~lo_min:1 batch_size_range
  in
  let budget_min, budget_max = range "--budget-range" ~lo_min:0 budget_range in
  let gen =
    gen_config max_windows eta_max horizon_max no_holistic ~family_prob
      ~batch_min ~batch_max ~budget_min ~budget_max
  in
  let cfg =
    {
      Harness.iterations;
      base_seed = seed;
      gen;
      invariants = not no_invariants;
      incremental_prob;
      crash_prob;
      batch_prob;
      serve_prob;
      spill_prob;
      max_failures;
    }
  in
  if do_replay then replay cfg ~artifacts seed
  else campaign cfg ~quiet ~artifacts

let cmd =
  let info =
    Cmd.info "fwfuzz" ~version:"1.0.0"
      ~doc:
        "Differential oracle and metamorphic fuzzer for the factor-windows \
         optimizer and executors."
  in
  Cmd.v info
    Term.(
      const main $ iterations_arg $ seed_arg $ replay_arg $ max_windows_arg
      $ eta_max_arg $ horizon_max_arg $ no_invariants_arg $ no_holistic_arg
      $ incremental_prob_arg $ crash_prob_arg $ batch_prob_arg $ serve_prob_arg $ spill_prob_arg $ family_prob_arg
      $ batch_size_range_arg $ budget_range_arg
      $ max_failures_arg $ quiet_arg $ artifacts_arg)

let () = exit (Cmd.eval' cmd)
