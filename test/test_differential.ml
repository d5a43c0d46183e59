(* Differential oracle, metamorphic invariants and shrinking
   (Fw_check).  The full campaign lives in bin/fwfuzz.exe; here a
   bounded slice of it runs under `dune runtest` so regressions in any
   execution path are caught by the tier-1 suite. *)
open Helpers
open Fw_window
module Scenario = Fw_check.Scenario
module Reference = Fw_engine.Reference
module Paths = Fw_check.Paths
module Differential = Fw_check.Differential
module Invariants = Fw_check.Invariants
module Shrink = Fw_check.Shrink
module Harness = Fw_check.Harness
module Aggregate = Fw_agg.Aggregate
module Event = Fw_engine.Event
module Row = Fw_engine.Row

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- reference evaluator --- *)

let test_reference_eval () =
  check_bool "min" true (Reference.eval Aggregate.Min [ 3.0; 1.0; 2.0 ] = 1.0);
  check_bool "max" true (Reference.eval Aggregate.Max [ 3.0; 1.0; 2.0 ] = 3.0);
  check_bool "count" true (Reference.eval Aggregate.Count [ 5.0; 5.0 ] = 2.0);
  check_bool "sum" true (Reference.eval Aggregate.Sum [ 1.5; 2.5 ] = 4.0);
  check_bool "avg" true (Reference.eval Aggregate.Avg [ 1.0; 3.0 ] = 2.0);
  check_bool "median odd" true
    (Reference.eval Aggregate.Median [ 9.0; 1.0; 5.0 ] = 5.0);
  check_bool "median even" true
    (Reference.eval Aggregate.Median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  check_bool "stdev" true
    (Fw_agg.Combine.equal_result
       (Reference.eval Aggregate.Stdev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])
       2.0)

let gen_ref_case =
  QCheck2.Gen.(
    let* ws = gen_window_set ~max_size:3 () in
    let* agg = oneofl Aggregate.all in
    let* seed = int_range 0 5000 in
    return (ws, agg, seed))

let prop_reference_equals_naive_stream =
  (* The naive plan shares no code with the reference evaluator: every
     window reads the raw stream through the streaming executor. *)
  qtest ~count:100 "reference evaluator = naive stream plan"
    gen_ref_case
    (fun (ws, agg, seed) ->
      Printf.sprintf "%s %s seed=%d" (print_window_list ws)
        (Aggregate.to_string agg) seed)
    (fun (ws, agg, seed) ->
      let prng = Fw_util.Prng.create seed in
      let events =
        Event.sort
          (Fw_workload.Event_gen.varied prng
             Fw_workload.Event_gen.default_config ~eta_max:2 ~horizon:80)
      in
      Row.equal_sets
        (Reference.run agg ws ~horizon:80 events)
        (Fw_engine.Stream_exec.run (Fw_plan.Plan.naive agg ws) ~horizon:80
           events))

(* --- scenario generation --- *)

let test_scenario_deterministic () =
  let a = Scenario.of_seed Scenario.default_gen 7 in
  let b = Scenario.of_seed Scenario.default_gen 7 in
  check_string "same repro" (Scenario.to_repro a) (Scenario.to_repro b);
  check_bool "same events" true (a.Scenario.events = b.Scenario.events);
  let c = Scenario.of_seed Scenario.default_gen 8 in
  check_bool "different seed differs" false
    (Scenario.to_repro a = Scenario.to_repro c)

let test_scenario_draws_cover_space () =
  (* Over a block of seeds the generator must exercise both aligned and
     non-aligned sets, several aggregates, and empty streams. *)
  let scenarios =
    List.init 120 (fun i -> Scenario.of_seed Scenario.default_gen (1000 + i))
  in
  check_bool "some non-aligned" true
    (List.exists (fun sc -> not (Scenario.aligned sc)) scenarios);
  check_bool "mostly aligned" true
    (List.length (List.filter Scenario.aligned scenarios) > 60);
  check_bool "some empty streams" true
    (List.exists (fun sc -> sc.Scenario.events = []) scenarios);
  let aggs =
    List.sort_uniq compare (List.map (fun sc -> sc.Scenario.agg) scenarios)
  in
  check_bool "at least 5 distinct aggregates" true (List.length aggs >= 5)

(* The draws of seeds 1-5, as recorded before the shard-count draw lost
   its consumer: [Scenario.draw] still consumes it, so window sets,
   batch sizes, budgets and event streams of existing seeds (and the
   committed CI campaigns) stay where they were.  The family column
   covers the draws that follow the batch draw on the same generator. *)
let test_scenario_seed_stability () =
  let pinned =
    [
      (0.0, 1, [ "W<4,4>"; "W<20,20>" ], 15, 26555, 0);
      ( 0.0, 2,
        [ "W<40,10>"; "W<210,30>"; "W<390,30>"; "W<420,60>"; "W<780,60>" ],
        10, 0, 81 );
      (0.0, 3, [ "W<27,9>"; "W<264,27>"; "W<108,27>" ], 4, 31387, 27);
      (0.0, 4, [ "W<4,4>" ], 13, 0, 297);
      (0.0, 5, [ "W<16,16>" ], 2, 51041, 0);
      (0.5, 3, [ "S<4>"; "S<9>"; "S<10>" ], 4, 34963, 27);
      (0.5, 5, [ "R<16,16>" ], 2, 0, 0);
    ]
  in
  List.iter
    (fun (family_prob, seed, windows, batch, budget, events) ->
      let sc =
        Scenario.of_seed { Scenario.default_gen with family_prob } seed
      in
      let label what = Printf.sprintf "seed %d (family %g) %s" seed family_prob what in
      Alcotest.(check (list string))
        (label "windows") windows
        (List.map Window.to_string sc.Scenario.windows);
      check_int (label "batch") batch sc.Scenario.batch;
      check_int (label "budget") budget sc.Scenario.budget;
      check_int (label "events") events (List.length sc.Scenario.events))
    pinned

(* --- differential + invariants on fixed scenarios --- *)

let fixed_scenario agg windows events ~eta ~horizon =
  {
    Scenario.agg;
    windows;
    eta;
    horizon;
    events = Event.sort events;
    shape = Scenario.Random_shape;
    tumbling = List.for_all Window.is_tumbling windows;
    batch = 7;
    budget = 4096;
  }

let test_differential_example6 () =
  let events =
    List.init 120 (fun t -> ev t "k" (float_of_int ((t * 17) mod 31)))
  in
  let sc =
    fixed_scenario Aggregate.Min example6_windows events ~eta:1 ~horizon:120
  in
  check_int "no discrepancies" 0 (List.length (Differential.check sc));
  check_int "no violations" 0 (List.length (Invariants.check sc))

let test_differential_median_and_hopping () =
  let events = List.init 60 (fun t -> ev t "k" (float_of_int ((t * 7) mod 13))) in
  let sc =
    fixed_scenario Aggregate.Median [ tumbling 10; tumbling 20 ] events ~eta:1
      ~horizon:60
  in
  check_int "median clean" 0 (List.length (Differential.check sc));
  let sc =
    fixed_scenario Aggregate.Sum [ w ~r:8 ~s:4; w ~r:12 ~s:4 ] events ~eta:1
      ~horizon:60
  in
  check_int "hopping clean" 0 (List.length (Differential.check sc));
  check_int "hopping invariants" 0 (List.length (Invariants.check sc))

let stack ?(plan = Paths.Naive_plan) sink mode ~batched ~spilled =
  Paths.Stack { plan; sink; mode; batched; spilled }

let engine ?plan mode = stack ?plan Paths.Engine mode ~batched:false ~spilled:false

let test_path_roster () =
  let module Stream_exec = Fw_engine.Stream_exec in
  let bools = [ false; true ] in
  let sinks = [ Paths.Engine; Paths.Checkpointed; Paths.Served ] in
  let modes = [ Stream_exec.Naive; Stream_exec.Incremental ] in
  let plans =
    [
      Paths.Naive_plan;
      Paths.Rewritten { factor_windows = true };
      Paths.Rewritten { factor_windows = false };
    ]
  in
  let combinations =
    List.concat_map
      (fun plan ->
        List.concat_map
          (fun sink ->
            List.concat_map
              (fun mode ->
                List.concat_map
                  (fun batched ->
                    List.map
                      (fun spilled -> stack ~plan sink mode ~batched ~spilled)
                      bools)
                  bools)
              modes)
          sinks)
      plans
  in
  let served_off = function
    | Paths.Stack { sink = Paths.Served; plan; batched; spilled; _ } ->
        batched || spilled || plan <> Paths.Naive_plan
    | _ -> false
  in
  let events = List.init 30 (fun t -> ev t "k" 1.0) in
  let sc = fixed_scenario Aggregate.Sum [ tumbling 10 ] events ~eta:1 ~horizon:30 in
  (* every runnable combination listed once; served x batched, served
     x spilled and served x rewritten listed nowhere and never
     applicable *)
  List.iter
    (fun p ->
      check_int
        (Paths.name p ^ " listed")
        (if served_off p then 0 else 1)
        (List.length (List.filter (( = ) p) Paths.all));
      check_bool (Paths.name p ^ " applicable") (not (served_off p))
        (Paths.applicable p sc))
    combinations;
  check_string "reference first" "reference" (Paths.name (List.hd Paths.all));
  check_int "reference, four sliced, 48 engine and checkpointed stacks, 2 served"
    55 (List.length Paths.all);
  let names = List.map Paths.name Paths.all in
  check_int "names unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  (* one naming rule for stacks: SINK-MODE[-batched][-spilled] then
     [-rewritten] or [-rewritten-no-factor], with one distinct word per
     sink *)
  let sink_words =
    List.filter_map
      (fun p ->
        match p with
        | Paths.Stack { plan; sink; mode; batched; spilled } -> (
            match String.split_on_char '-' (Paths.name p) with
            | sink_word :: mode_word :: flags ->
                check_string (Paths.name p ^ " mode word")
                  (if mode = Stream_exec.Naive then "naive" else "incremental")
                  mode_word;
                Alcotest.(check (list string))
                  (Paths.name p ^ " flags")
                  ((if batched then [ "batched" ] else [])
                  @ (if spilled then [ "spilled" ] else [])
                  @
                  match plan with
                  | Paths.Naive_plan -> []
                  | Paths.Rewritten { factor_windows = true } -> [ "rewritten" ]
                  | Paths.Rewritten { factor_windows = false } ->
                      [ "rewritten"; "no"; "factor" ])
                  flags;
                Some (sink, sink_word)
            | _ -> Alcotest.failf "malformed stack name %s" (Paths.name p))
        | _ -> None)
      Paths.all
    |> List.sort_uniq compare
  in
  check_int "one word per sink" 3 (List.length sink_words);
  check_int "distinct sink words" 3
    (List.length (List.sort_uniq compare (List.map snd sink_words)));
  check_string "composed name" "checkpointed-incremental-batched-spilled"
    (Paths.name
       (stack Paths.Checkpointed Stream_exec.Incremental ~batched:true
          ~spilled:true));
  check_string "composed rewritten name"
    "checkpointed-incremental-batched-spilled-rewritten-no-factor"
    (Paths.name
       (stack
          ~plan:(Paths.Rewritten { factor_windows = false })
          Paths.Checkpointed Stream_exec.Incremental ~batched:true
          ~spilled:true))

let test_incremental_path_applicability () =
  (* The incremental engine falls back per node, so it applies to every
     scenario: non-aligned windows and holistic aggregates included. *)
  let incremental = engine Fw_engine.Stream_exec.Incremental in
  let events = List.init 40 (fun t -> ev t "k" (float_of_int t)) in
  let non_aligned =
    fixed_scenario Aggregate.Avg
      [ Window.make ~range:10 ~slide:4 ]
      events ~eta:1 ~horizon:40
  in
  check_bool "non-aligned applicable" true
    (Paths.applicable incremental non_aligned);
  let holistic =
    fixed_scenario Aggregate.Median [ tumbling 10 ] events ~eta:1 ~horizon:40
  in
  check_bool "holistic applicable" true (Paths.applicable incremental holistic);
  check_int "non-aligned clean" 0
    (List.length (Differential.check ~paths:[ incremental ] non_aligned));
  check_int "holistic clean" 0
    (List.length (Differential.check ~paths:[ incremental ] holistic))

let test_paths_subset_restricts () =
  (* ?paths really restricts the comparison: a subset runs only those. *)
  let events = List.init 30 (fun t -> ev t "k" 1.0) in
  let sc = fixed_scenario Aggregate.Sum [ tumbling 10 ] events ~eta:1 ~horizon:30 in
  check_int "subset clean" 0
    (List.length
       (Differential.check
          ~paths:
            [
              engine Fw_engine.Stream_exec.Naive;
              engine Fw_engine.Stream_exec.Incremental;
            ]
          sc))

let test_incremental_prob_zero_skips () =
  (* With probability 0 the incremental path is excluded but the rest of
     the oracle still runs. *)
  match
    Harness.check_seed
      { Harness.default_config with Harness.incremental_prob = 0.0 }
      42
  with
  | Ok _ -> ()
  | Error f ->
      Alcotest.fail
        ("seed 42 failed with incremental off: "
        ^ Format.asprintf "%a" Harness.pp_failure f)

let test_non_aligned_paths () =
  (* Non-aligned windows: the rewritten paths now apply (the optimizer
     routes them around the WCG as fallback aggregates); slicing and
     the naive stream must still agree with the reference. *)
  let nw = Window.make ~range:10 ~slide:4 in
  let events = List.init 40 (fun t -> ev t "k" (float_of_int t)) in
  let sc = fixed_scenario Aggregate.Avg [ nw ] events ~eta:1 ~horizon:40 in
  check_bool "not aligned" false (Scenario.aligned sc);
  check_bool "rewritten applicable" true
    (Paths.applicable
       (engine
          ~plan:(Paths.Rewritten { factor_windows = true })
          Fw_engine.Stream_exec.Naive)
       sc);
  check_bool "slicing applicable" true
    (Paths.applicable (Paths.Sliced (Fw_slicing.Exec.Shared, Fw_slicing.Exec.Paired_slicing)) sc);
  check_int "clean" 0 (List.length (Differential.check sc));
  check_int "invariants vacuous" 0 (List.length (Invariants.check sc))

(* --- shrinking --- *)

let test_shrink_list_minimal () =
  (* failure = list contains both 17 and 42 *)
  let pred xs = List.mem 17 xs && List.mem 42 xs in
  let xs = List.init 100 Fun.id in
  let shrunk = Shrink.shrink_list pred xs in
  check_bool "still fails" true (pred shrunk);
  check_int "minimal" 2 (List.length shrunk)

let test_shrink_list_preserves_order () =
  let pred xs = List.mem 30 xs && List.mem 5 xs in
  let shrunk = Shrink.shrink_list pred (List.init 50 Fun.id) in
  check_bool "sorted" true (List.sort compare shrunk = shrunk)

let test_shrink_windows_greedy () =
  let pred ws = List.exists (Window.equal (tumbling 20)) ws in
  let shrunk = Shrink.windows pred example6_windows in
  check_int "single window" 1 (List.length shrunk);
  check_window "the culprit" (tumbling 20) (List.hd shrunk)

let test_shrink_scenario_pipeline () =
  (* synthetic failure: scenario fails iff it contains an event at
     t = 5 and the 20-minute window *)
  let events = List.init 80 (fun t -> ev t "k" 1.0) in
  let sc =
    fixed_scenario Aggregate.Min example6_windows events ~eta:1 ~horizon:80
  in
  let pred sc =
    List.exists (fun e -> e.Event.time = 5) sc.Scenario.events
    && List.exists (Window.equal (tumbling 20)) sc.Scenario.windows
  in
  let shrunk = Shrink.scenario pred sc in
  check_bool "still fails" true (pred shrunk);
  check_int "one event" 1 (List.length shrunk.Scenario.events);
  check_int "one window" 1 (List.length shrunk.Scenario.windows)

(* --- the bounded campaign --- *)

let test_bounded_campaign () =
  let cfg =
    { Harness.default_config with Harness.iterations = 60; base_seed = 42 }
  in
  let outcome = Harness.run cfg in
  check_int "all scenarios checked" 60 outcome.Harness.checked;
  match outcome.Harness.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        ("campaign failure: " ^ Format.asprintf "%a" Harness.pp_failure f)

let test_bounded_crash_campaign () =
  (* The acceptance property: under --crash-prob 0.3 the crash-restart
     paths (both engine modes, deterministic crash points and torn
     snapshot writes included) recover byte-identically across a
     bounded campaign. *)
  let cfg =
    {
      Harness.default_config with
      Harness.iterations = 40;
      base_seed = 1300;
      crash_prob = 0.3;
    }
  in
  let outcome = Harness.run cfg in
  check_int "all scenarios checked" 40 outcome.Harness.checked;
  match outcome.Harness.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        ("crash campaign failure: " ^ Format.asprintf "%a" Harness.pp_failure f)

let test_bounded_batched_campaign () =
  (* The batched acceptance property: under full batch/crash/spill
     composition the vectorized stacks — feed_batch with mid-batch
     punctuation, checkpoints landing inside batches, either of them
     under a memory budget — all recover byte-identical rows and
     bit-for-bit cost counters across a bounded campaign. *)
  let cfg =
    {
      Harness.default_config with
      Harness.iterations = 30;
      base_seed = 4200;
      crash_prob = 0.25;
      batch_prob = 1.0;
      spill_prob = 0.25;
    }
  in
  let outcome = Harness.run cfg in
  check_int "all scenarios checked" 30 outcome.Harness.checked;
  match outcome.Harness.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        ("batched campaign failure: "
        ^ Format.asprintf "%a" Harness.pp_failure f)

let test_bounded_served_campaign () =
  (* The serving acceptance property: under --serve-prob 1.0 every
     scenario's overlapping sub-queries, registered as SQL with one
     in-process server and fed the shared stream once, tap rows
     byte-identical to independent single-query runs — the cross-query
     sharing correctness gate, fuzzed across a bounded campaign. *)
  let cfg =
    {
      Harness.default_config with
      Harness.iterations = 30;
      base_seed = 7100;
      serve_prob = 1.0;
    }
  in
  let outcome = Harness.run cfg in
  check_int "all scenarios checked" 30 outcome.Harness.checked;
  match outcome.Harness.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.fail
        ("served campaign failure: "
        ^ Format.asprintf "%a" Harness.pp_failure f)

let test_shrink_scenario_batch_dimension () =
  (* a synthetic failure that depends on the batch size shrinks it to
     the smallest size that still fails, and one that doesn't depend on
     it lands on 1 *)
  let events = List.init 20 (fun t -> ev t "k" 1.0) in
  let sc =
    {
      (fixed_scenario Aggregate.Sum [ tumbling 10 ] events ~eta:1 ~horizon:20)
      with
      Scenario.batch = 13;
    }
  in
  let shrunk = Shrink.scenario (fun sc -> sc.Scenario.batch >= 5) sc in
  check_int "batch shrunk to smallest failing" 5 shrunk.Scenario.batch;
  let shrunk = Shrink.scenario (fun _ -> true) sc in
  check_int "batch-independent failure lands on 1" 1 shrunk.Scenario.batch

let test_check_seed_ok () =
  match Harness.check_seed Harness.default_config 42 with
  | Ok sc -> check_bool "scenario described" true (Scenario.summary sc <> "")
  | Error f ->
      Alcotest.fail
        ("seed 42 failed: " ^ Format.asprintf "%a" Harness.pp_failure f)

let suite =
  [
    Alcotest.test_case "reference eval" `Quick test_reference_eval;
    prop_reference_equals_naive_stream;
    Alcotest.test_case "scenario deterministic" `Quick
      test_scenario_deterministic;
    Alcotest.test_case "scenario coverage" `Quick
      test_scenario_draws_cover_space;
    Alcotest.test_case "differential example 6" `Quick
      test_differential_example6;
    Alcotest.test_case "differential median + hopping" `Quick
      test_differential_median_and_hopping;
    Alcotest.test_case "non-aligned path gating" `Quick test_non_aligned_paths;
    Alcotest.test_case "path roster" `Quick test_path_roster;
    Alcotest.test_case "incremental path applicability" `Quick
      test_incremental_path_applicability;
    Alcotest.test_case "paths subset restricts" `Quick
      test_paths_subset_restricts;
    Alcotest.test_case "incremental-prob 0 skips" `Quick
      test_incremental_prob_zero_skips;
    Alcotest.test_case "shrink list minimal" `Quick test_shrink_list_minimal;
    Alcotest.test_case "shrink list order" `Quick
      test_shrink_list_preserves_order;
    Alcotest.test_case "shrink windows greedy" `Quick test_shrink_windows_greedy;
    Alcotest.test_case "shrink scenario pipeline" `Quick
      test_shrink_scenario_pipeline;
    Alcotest.test_case "bounded campaign (60 seeds)" `Quick
      test_bounded_campaign;
    Alcotest.test_case "bounded crash campaign (40 seeds, p=0.3)" `Quick
      test_bounded_crash_campaign;
    Alcotest.test_case "bounded batched campaign (30 seeds, composed)" `Quick
      test_bounded_batched_campaign;
    Alcotest.test_case "bounded served campaign (30 seeds, p=1)" `Quick
      test_bounded_served_campaign;
    Alcotest.test_case "shrink scenario batch dimension" `Quick
      test_shrink_scenario_batch_dimension;
    Alcotest.test_case "check_seed ok" `Quick test_check_seed_ok;
    Alcotest.test_case "scenario seed stability" `Quick
      test_scenario_seed_stability;
  ]
