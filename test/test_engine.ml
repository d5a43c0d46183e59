open Helpers
open Fw_window
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Reference = Fw_engine.Reference
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Run = Fw_engine.Run
module Plan = Fw_plan.Plan
module Rewrite = Fw_plan.Rewrite
module Aggregate = Fw_agg.Aggregate

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- Event / Row --- *)

let test_event_basics () =
  check_bool "ordered" true
    (Event.is_time_ordered [ ev 1 "a" 1.0; ev 1 "b" 2.0; ev 3 "a" 0.0 ]);
  check_bool "unordered" false
    (Event.is_time_ordered [ ev 3 "a" 1.0; ev 1 "b" 2.0 ]);
  check_bool "sorted" true (Event.is_time_ordered (Event.sort [ ev 3 "a" 1.0; ev 1 "b" 2.0 ]));
  match Event.make ~time:(-1) ~key:"a" ~value:0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative time rejected"

let row win lo hi key value =
  {
    Row.window = win;
    interval = Interval.make ~lo ~hi;
    key;
    value;
  }

let test_row_equal_sets () =
  let a = [ row (tumbling 10) 0 10 "k" 1.0; row (tumbling 10) 10 20 "k" 2.0 ] in
  let b = List.rev a in
  check_bool "order irrelevant" true (Row.equal_sets a b);
  check_bool "tolerant to fp noise" true
    (Row.equal_sets a
       [ row (tumbling 10) 0 10 "k" (1.0 +. 1e-12); row (tumbling 10) 10 20 "k" 2.0 ]);
  check_bool "value difference detected" false
    (Row.equal_sets a [ row (tumbling 10) 0 10 "k" 1.5; row (tumbling 10) 10 20 "k" 2.0 ]);
  check_bool "cardinality difference" false (Row.equal_sets a (List.tl a));
  check_int "diff size" 1 (List.length (Row.diff a (List.tl a)))

(* --- Reference evaluator --- *)

let test_batch_window_rows () =
  let events = [ ev 0 "a" 5.0; ev 3 "a" 2.0; ev 12 "a" 7.0; ev 5 "b" 1.0 ] in
  let rows = Reference.window_rows Aggregate.Min (tumbling 10) ~horizon:20 events in
  check_bool "expected rows" true
    (Row.equal_sets rows
       [
         row (tumbling 10) 0 10 "a" 2.0;
         row (tumbling 10) 0 10 "b" 1.0;
         row (tumbling 10) 10 20 "a" 7.0;
       ])

let test_batch_empty_instances () =
  let rows = Reference.window_rows Aggregate.Sum (tumbling 10) ~horizon:30 [ ev 25 "a" 4.0 ] in
  check_int "only one row" 1 (List.length rows)

let test_batch_hopping () =
  (* W(10,5): instances [0,10), [5,15); event at 7 lands in both. *)
  let rows =
    Reference.window_rows Aggregate.Count (w ~r:10 ~s:5) ~horizon:15 [ ev 7 "a" 1.0 ]
  in
  check_int "two rows" 2 (List.length rows);
  List.iter (fun r -> check_bool "count 1" true (r.Row.value = 1.0)) rows

(* --- Streaming vs oracle --- *)

let test_stream_matches_oracle_simple () =
  let plan = Plan.naive Aggregate.Min example6_windows in
  let events = List.init 120 (fun t -> ev t "k" (float_of_int ((t * 17) mod 31))) in
  let rows = Stream_exec.run plan ~horizon:120 events in
  let oracle = Reference.run Aggregate.Min example6_windows ~horizon:120 events in
  check_bool "match" true (Row.equal_sets rows oracle)

let test_stream_late_event () =
  let plan = Plan.naive Aggregate.Min [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  Stream_exec.feed t (ev 5 "k" 1.0);
  (match Stream_exec.feed t (ev 3 "k" 1.0) with
  | exception Stream_exec.Late_event _ -> ()
  | _ -> Alcotest.fail "late event must raise");
  Stream_exec.feed t (ev 5 "k" 2.0) (* same time is fine *)

let test_stream_advance_fires () =
  let plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  Stream_exec.feed t (ev 1 "k" 2.0);
  Stream_exec.feed t (ev 2 "k" 3.0);
  let rows = Stream_exec.close t ~horizon:10 in
  check_int "one row" 1 (List.length rows);
  check_bool "sum 5" true ((List.hd rows).Row.value = 5.0)

let test_stream_closed_rejects () =
  let plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  ignore (Stream_exec.close t ~horizon:10);
  match Stream_exec.feed t (ev 11 "k" 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "closed executor must reject"

let test_incomplete_instances_dropped () =
  let plan = Plan.naive Aggregate.Count [ tumbling 10 ] in
  let rows = Stream_exec.run plan ~horizon:15 [ ev 1 "k" 1.0; ev 12 "k" 1.0 ] in
  (* [10,20) is incomplete at horizon 15 *)
  check_int "only the complete instance" 1 (List.length rows)

(* Metrics match the analytic cost model over exactly one period with a
   steady single-key stream (Example 6 at eta = 1). *)
let test_metrics_match_cost_model () =
  let outcome = Rewrite.optimize ~eta:1 Aggregate.Min example6_windows in
  let events = List.init 120 (fun t -> ev t "k" 1.0) in
  let metrics = Metrics.create () in
  ignore (Stream_exec.run ~metrics outcome.Rewrite.plan ~horizon:120 events);
  check_int "total = model 150" 150 (Metrics.total_processed metrics);
  check_int "W10 = 120" 120 (Metrics.processed metrics (tumbling 10));
  check_int "W20 = 12" 12 (Metrics.processed metrics (tumbling 20));
  check_int "W30 = 12" 12 (Metrics.processed metrics (tumbling 30));
  check_int "W40 = 6" 6 (Metrics.processed metrics (tumbling 40));
  check_int "ingested" 120 (Metrics.ingested metrics)

let test_metrics_hopping_exact () =
  (* Hopping windows have instances straddling the horizon; those never
     fire and must not be charged, so measured = model exactly. *)
  let ws = [ w ~r:8 ~s:4; w ~r:12 ~s:4; w ~r:24 ~s:8 ] in
  let outcome = Rewrite.optimize ~eta:1 Aggregate.Min ws in
  let env = Fw_wcg.Cost_model.make_env ws in
  let horizon = env.Fw_wcg.Cost_model.period in
  let events = List.init horizon (fun t -> ev t "k" (float_of_int t)) in
  let metrics = Metrics.create () in
  ignore (Stream_exec.run ~metrics outcome.Rewrite.plan ~horizon events);
  (match outcome.Rewrite.optimization with
  | Some r ->
      check_int "measured = model" r.Fw_wcg.Algorithm1.total
        (Metrics.total_processed metrics)
  | None -> Alcotest.fail "expected optimization");
  let naive_metrics = Metrics.create () in
  ignore
    (Stream_exec.run ~metrics:naive_metrics outcome.Rewrite.naive_plan
       ~horizon events);
  check_int "naive measured = naive model"
    (Option.get outcome.Rewrite.naive_cost)
    (Metrics.total_processed naive_metrics)

let test_metrics_naive_matches_baseline () =
  let plan = Plan.naive Aggregate.Min example6_windows in
  let events = List.init 120 (fun t -> ev t "k" 1.0) in
  let metrics = Metrics.create () in
  ignore (Stream_exec.run ~metrics plan ~horizon:120 events);
  check_int "naive total 480" 480 (Metrics.total_processed metrics)

(* The pinned lookup contract: windows the plan never charged read as
   0 (cost-model comparisons probe windows cheap plans don't touch). *)
let test_metrics_unknown_window_zero () =
  let m = Metrics.create () in
  check_int "fresh metrics" 0 (Metrics.processed m (tumbling 77));
  check_int "fresh total" 0 (Metrics.total_processed m);
  Metrics.record m (tumbling 10) 5;
  check_int "other window still 0" 0 (Metrics.processed m (tumbling 77));
  check_int "recorded window" 5 (Metrics.processed m (tumbling 10))

let test_metrics_pp_golden () =
  let m = Metrics.create () in
  Metrics.record_ingest m 7;
  (* record out of window order: pp must sort *)
  Metrics.record m (tumbling 20) 3;
  Metrics.record m (tumbling 10) 2;
  check_string "stable sorted rendering"
    "ingested: 7\nW<10,10> processed 2\nW<20,20> processed 3\ntotal \
     processed: 5"
    (Format.asprintf "%a" Metrics.pp m);
  check_string "idempotent" (Format.asprintf "%a" Metrics.pp m)
    (Format.asprintf "%a" Metrics.pp m)

(* --- per-operator observability ------------------------------------ *)

let node_counter_values m name =
  List.filter_map
    (fun (e : Fw_obs.Registry.entry) ->
      if e.Fw_obs.Registry.name = name then
        match e.Fw_obs.Registry.metric with
        | Fw_obs.Registry.Counter c ->
            Some (e.Fw_obs.Registry.labels, Fw_obs.Counter.get c)
        | _ -> None
      else None)
    (Fw_obs.Registry.entries (Metrics.registry m))

let test_per_node_rows () =
  let plan = Plan.naive Aggregate.Sum example6_windows in
  let events = List.init 120 (fun t -> ev t "k" 1.0) in
  let metrics = Metrics.create () in
  ignore (Stream_exec.run ~metrics plan ~horizon:120 events);
  let rows_in = node_counter_values metrics "node_rows_in_total" in
  let kind labels = List.assoc "kind" labels in
  let source_in =
    List.filter (fun (l, _) -> kind l = "source") rows_in
  in
  (match source_in with
  | [ (_, n) ] -> check_int "source saw every event" 120 n
  | l -> Alcotest.failf "expected 1 source node, got %d" (List.length l));
  (* every window operator of the naive plan sees the whole stream *)
  let win_in =
    List.filter (fun (l, _) -> kind l = "win-naive") rows_in
  in
  check_int "one operator per window" 4 (List.length win_in);
  List.iter (fun (_, n) -> check_int "window saw every event" 120 n) win_in;
  (* rows_out of the source equals each subscriber's rows_in *)
  let rows_out = node_counter_values metrics "node_rows_out_total" in
  (match List.filter (fun (l, _) -> kind l = "source") rows_out with
  | [ (_, n) ] -> check_int "source forwarded every event" 120 n
  | _ -> Alcotest.fail "missing source rows_out")

let test_fallback_reasons () =
  (* holistic aggregate: every window node falls back *)
  let m1 = Metrics.create () in
  ignore
    (Stream_exec.run ~metrics:m1 ~mode:Stream_exec.Incremental
       (Plan.naive Aggregate.Median [ tumbling 10 ])
       ~horizon:40
       (List.init 40 (fun t -> ev t "k" 1.0)));
  (match Metrics.fallbacks m1 with
  | [ (_, _, reason, 1) ] -> check_string "holistic" "holistic-aggregate" reason
  | l -> Alcotest.failf "expected 1 fallback, got %d" (List.length l));
  (* non-aligned geometry *)
  let m2 = Metrics.create () in
  ignore
    (Stream_exec.run ~metrics:m2 ~mode:Stream_exec.Incremental
       (Plan.naive Aggregate.Sum [ w ~r:15 ~s:4 ])
       ~horizon:40
       (List.init 40 (fun t -> ev t "k" 1.0)));
  (match Metrics.fallbacks m2 with
  | [ (_, _, reason, 1) ] ->
      check_string "non-aligned" "non-aligned-window" reason
  | l -> Alcotest.failf "expected 1 fallback, got %d" (List.length l));
  (* naive mode records none *)
  let m3 = Metrics.create () in
  ignore
    (Stream_exec.run ~metrics:m3
       (Plan.naive Aggregate.Median [ tumbling 10 ])
       ~horizon:40
       (List.init 40 (fun t -> ev t "k" 1.0)));
  check_int "no fallbacks in naive mode" 0 (List.length (Metrics.fallbacks m3))

(* Figure-11-style workload: a generated general window set; the
   rewritten plan's per-operator totals must sum below the naive
   plan's, and the comparison's savings must reconcile with both
   plans' metrics. *)
let test_compare_plans_savings () =
  let prng = Fw_util.Prng.create 1106 in
  let ws =
    Fw_workload.Set_gen.random prng Fw_workload.Set_gen.default_config ~n:5
  in
  let outcome = Rewrite.optimize ~eta:2 Aggregate.Sum ws in
  let events =
    Fw_workload.Event_gen.steady (Fw_util.Prng.create 7)
      Fw_workload.Event_gen.default_config ~eta:2 ~horizon:400
  in
  match
    Run.compare_plans outcome.Rewrite.naive_plan outcome.Rewrite.plan
      ~horizon:400 events
  with
  | Error e -> Alcotest.failf "plans disagree: %s" e
  | Ok cmp ->
      let baseline_total =
        List.fold_left (fun a s -> a + s.Run.baseline_items) 0 cmp.Run.savings
      and rewritten_total =
        List.fold_left (fun a s -> a + s.Run.rewritten_items) 0 cmp.Run.savings
      in
      check_int "savings cover the baseline metrics"
        (Metrics.total_processed cmp.Run.baseline.Run.metrics)
        baseline_total;
      check_int "savings cover the rewritten metrics"
        (Metrics.total_processed cmp.Run.rewritten.Run.metrics)
        rewritten_total;
      check_bool "rewritten per-operator totals sum below naive" true
        (rewritten_total < baseline_total);
      List.iter
        (fun s ->
          check_int "baseline side matches its metrics"
            (Metrics.processed cmp.Run.baseline.Run.metrics s.Run.window)
            s.Run.baseline_items;
          check_int "saved is the difference"
            (s.Run.baseline_items - s.Run.rewritten_items)
            (Run.saved s))
        cmp.Run.savings

let test_run_verify_and_compare () =
  let outcome = Rewrite.optimize Aggregate.Avg example6_windows in
  let prng = Fw_util.Prng.create 5 in
  let events =
    Fw_workload.Event_gen.steady prng Fw_workload.Event_gen.default_config
      ~eta:2 ~horizon:120
  in
  (match Run.verify_against_naive outcome.Rewrite.plan ~horizon:120 events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "oracle mismatch: %s" e);
  match
    Run.compare_plans outcome.Rewrite.naive_plan outcome.Rewrite.plan
      ~horizon:120 events
  with
  | Ok cmp ->
      check_bool "sharing saves work" true
        (Metrics.total_processed cmp.Run.rewritten.Run.metrics
        < Metrics.total_processed cmp.Run.baseline.Run.metrics)
  | Error e -> Alcotest.failf "plans disagree: %s" e

(* The central equivalence property: for random window sets, aggregates
   and event streams, the optimized plan's streaming output equals the
   batch oracle. *)
let gen_equiv_case =
  QCheck2.Gen.(
    let* ws = gen_window_set ~max_size:4 () in
    let* agg =
      oneofl
        [ Aggregate.Min; Aggregate.Max; Aggregate.Sum; Aggregate.Count;
          Aggregate.Avg; Aggregate.Stdev ]
    in
    let* seed = int_range 0 10000 in
    let* eta = int_range 1 3 in
    return (ws, agg, seed, eta))

let print_equiv_case (ws, agg, seed, eta) =
  Printf.sprintf "%s %s seed=%d eta=%d" (print_window_list ws)
    (Aggregate.to_string agg) seed eta

let equiv_horizon ws =
  (* keep runtimes bounded: one period if small, else a fixed window *)
  match Fw_wcg.Cost_model.make_env ws with
  | env -> min env.Fw_wcg.Cost_model.period 400
  | exception _ -> 200

let prop_optimized_equals_oracle =
  qtest ~count:120 "optimized plan = batch oracle (random cases)"
    gen_equiv_case print_equiv_case
    (fun (ws, agg, seed, eta) ->
      match Rewrite.optimize ~eta agg ws with
      | exception _ -> true
      | outcome ->
          let horizon = equiv_horizon ws in
          let prng = Fw_util.Prng.create seed in
          let events =
            Fw_workload.Event_gen.varied prng
              Fw_workload.Event_gen.default_config ~eta_max:eta
              ~horizon
          in
          Run.verify_against_naive outcome.Rewrite.plan ~horizon events = Ok ())

let prop_naive_equals_oracle =
  qtest ~count:60 "naive streaming plan = batch oracle"
    gen_equiv_case print_equiv_case
    (fun (ws, agg, seed, _eta) ->
      let plan = Plan.naive agg ws in
      let horizon = equiv_horizon ws in
      let prng = Fw_util.Prng.create seed in
      let events =
        Fw_workload.Event_gen.spiky prng Fw_workload.Event_gen.default_config
          ~eta:1 ~spike_every:7 ~spike_factor:4 ~horizon
      in
      Run.verify_against_naive plan ~horizon events = Ok ())

let test_median_naive_end_to_end () =
  (* Holistic aggregate: only the naive path, but it must still work. *)
  let outcome = Rewrite.optimize Aggregate.Median [ tumbling 10; tumbling 20 ] in
  let events = List.init 40 (fun t -> ev t "k" (float_of_int ((t * 13) mod 7))) in
  match Run.verify_against_naive outcome.Rewrite.plan ~horizon:40 events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "median mismatch: %s" e

let test_no_events () =
  let outcome = Rewrite.optimize Aggregate.Min example6_windows in
  let rows = Stream_exec.run outcome.Rewrite.plan ~horizon:120 [] in
  check_int "no rows" 0 (List.length rows)

let test_single_key_skew () =
  (* All events on one key out of many configured. *)
  let outcome = Rewrite.optimize Aggregate.Max example6_windows in
  let events = List.init 120 (fun t -> ev t "hot" (float_of_int t)) in
  match Run.verify_against_naive outcome.Rewrite.plan ~horizon:120 events with
  | Ok () -> ()
  | Error e -> Alcotest.failf "skew mismatch: %s" e

(* --- instance boundary arithmetic --- *)

let test_instances_containing_boundaries () =
  let wd = w ~r:10 ~s:2 in
  (* t < r: ramp-up, fewer than r/s instances exist *)
  check_bool "t=0" true (Stream_exec.instances_containing wd 0 = [ 0 ]);
  check_bool "t=1" true (Stream_exec.instances_containing wd 1 = [ 0 ]);
  check_bool "t=2" true (Stream_exec.instances_containing wd 2 = [ 0; 1 ]);
  check_bool "t=9" true (Stream_exec.instances_containing wd 9 = [ 0; 1; 2; 3; 4 ]);
  (* t exactly on a slide boundary at full depth: oldest instance
     [0,10) no longer contains t=10, newest [10,20) starts there *)
  check_bool "t=10" true
    (Stream_exec.instances_containing wd 10 = [ 1; 2; 3; 4; 5 ]);
  check_bool "t=11" true
    (Stream_exec.instances_containing wd 11 = [ 1; 2; 3; 4; 5 ]);
  (* tumbling: exactly one instance, switching at the boundary *)
  let tw = tumbling 10 in
  check_bool "tumbling t=9" true (Stream_exec.instances_containing tw 9 = [ 0 ]);
  check_bool "tumbling t=10" true (Stream_exec.instances_containing tw 10 = [ 1 ])

let test_instances_enclosing_boundaries () =
  let wd = w ~r:10 ~s:2 in
  (* interval width exactly r: only the instance it coincides with *)
  check_bool "[0,10)" true
    (Stream_exec.instances_enclosing wd ~lo:0 ~hi:10 = [ 0 ]);
  check_bool "[2,12)" true
    (Stream_exec.instances_enclosing wd ~lo:2 ~hi:12 = [ 1 ]);
  (* width r but not slide-positioned: no instance encloses it *)
  check_bool "[1,11)" true
    (Stream_exec.instances_enclosing wd ~lo:1 ~hi:11 = []);
  (* wider than r: impossible *)
  check_bool "[0,11)" true
    (Stream_exec.instances_enclosing wd ~lo:0 ~hi:11 = []);
  (* a slide-sized fragment lands in every covering instance *)
  check_bool "[10,12)" true
    (Stream_exec.instances_enclosing wd ~lo:10 ~hi:12 = [ 1; 2; 3; 4; 5 ]);
  (* ramp-up: negative instances don't exist *)
  check_bool "[0,2)" true
    (Stream_exec.instances_enclosing wd ~lo:0 ~hi:2 = [ 0 ]);
  check_bool "[2,4)" true
    (Stream_exec.instances_enclosing wd ~lo:2 ~hi:4 = [ 0; 1 ])

(* --- incremental (pane) mode --- *)

let inc = Stream_exec.Incremental

let test_incremental_simple () =
  let plan = Plan.naive Aggregate.Sum [ w ~r:10 ~s:2 ] in
  let events = List.init 40 (fun t -> ev t "k" (float_of_int ((t * 7) mod 11))) in
  let naive = Stream_exec.run plan ~horizon:40 events in
  let incr = Stream_exec.run ~mode:inc plan ~horizon:40 events in
  check_bool "modes agree" true (Row.equal_sets naive incr)

let test_incremental_late_event () =
  let plan = Plan.naive Aggregate.Sum [ w ~r:10 ~s:2 ] in
  let t = Stream_exec.create ~mode:inc plan in
  Stream_exec.feed t (ev 5 "k" 1.0);
  match Stream_exec.feed t (ev 3 "k" 1.0) with
  | exception Stream_exec.Late_event _ -> ()
  | _ -> Alcotest.fail "late event must raise in incremental mode too"

let test_incremental_punctuation_fires () =
  let plan = Plan.naive Aggregate.Count [ w ~r:4 ~s:2 ] in
  let t = Stream_exec.create ~mode:inc plan in
  Stream_exec.feed t (ev 1 "k" 1.0);
  Stream_exec.advance t 4;
  let rows = Stream_exec.close t ~horizon:8 in
  (* event at t=1 is in instances [0,4) only (instance [-2,2) doesn't
     exist); [2,6)/[4,8) are empty and produce no rows *)
  check_int "one row" 1 (List.length rows);
  check_bool "the [0,4) instance" true
    (Interval.equal (List.hd rows).Row.interval (Interval.make ~lo:0 ~hi:4))

(* Every aggregate (incl. MEDIAN via fallback), random windows
   (aligned and not — j > 0 breaks alignment, forcing the per-instance
   fallback), random streams: incremental = naive. *)
let gen_incremental_case =
  QCheck2.Gen.(
    let gen_any_window =
      let* s = int_range 2 10 in
      let* k = int_range 1 6 in
      let* j = int_range 0 (s - 1) in
      return (Window.make ~range:((k * s) + j) ~slide:s)
    in
    let* n = int_range 1 4 in
    let* ws = list_repeat n gen_any_window in
    let* agg = oneofl Aggregate.all in
    let* seed = int_range 0 10000 in
    let* eta = int_range 1 3 in
    return (Window.dedup ws, agg, seed, eta))

let prop_incremental_equals_naive =
  qtest ~count:120 "incremental mode = naive mode (random cases)"
    gen_incremental_case print_equiv_case
    (fun (ws, agg, seed, eta) ->
      let plan = Plan.naive agg ws in
      let horizon = equiv_horizon ws in
      let prng = Fw_util.Prng.create seed in
      let events =
        Fw_workload.Event_gen.varied prng
          Fw_workload.Event_gen.default_config ~eta_max:eta ~horizon
      in
      Row.equal_sets
        (Stream_exec.run plan ~horizon events)
        (Stream_exec.run ~mode:inc plan ~horizon events))

let prop_incremental_rewritten_equals_oracle =
  (* Rewritten plans under incremental mode: root windows read the
     stream (pane path), downstream windows consume sub-aggregates
     (fallback path) — both must still match the batch oracle. *)
  qtest ~count:80 "incremental rewritten plan = batch oracle"
    gen_equiv_case print_equiv_case
    (fun (ws, agg, seed, eta) ->
      match Rewrite.optimize ~eta agg ws with
      | exception _ -> true
      | outcome ->
          let horizon = equiv_horizon ws in
          let prng = Fw_util.Prng.create seed in
          let events =
            Fw_workload.Event_gen.steady prng
              Fw_workload.Event_gen.default_config ~eta ~horizon
          in
          Row.equal_sets
            (Stream_exec.run ~mode:inc outcome.Rewrite.plan ~horizon events)
            (Reference.run agg ws ~horizon events))

(* --- watermark / punctuation / close edge cases --- *)

let test_advance_fires_without_events () =
  (* A punctuation alone must fire every instance ending at or before
     it, even with no event at the boundary. *)
  let plan = Plan.naive Aggregate.Count [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  Stream_exec.feed t (ev 3 "k" 1.0);
  Stream_exec.advance t 10;
  Stream_exec.advance t 25;
  let rows = Stream_exec.close t ~horizon:30 in
  check_bool "instance [0,10) fired" true
    (List.exists (fun r -> Interval.equal r.Row.interval (Interval.make ~lo:0 ~hi:10)) rows);
  check_int "only the non-empty instance" 1 (List.length rows)

let test_advance_at_watermark_is_noop () =
  (* Punctuation at (or below) the current watermark is a no-op: it
     must not fire anything new, and an event at that same time is
     still acceptable afterwards. *)
  let plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  Stream_exec.feed t (ev 7 "k" 1.0);
  Stream_exec.advance t 7;
  Stream_exec.advance t 3;
  Stream_exec.feed t (ev 7 "k" 2.0);
  let rows = Stream_exec.close t ~horizon:10 in
  check_int "one row" 1 (List.length rows);
  check_bool "both events aggregated" true ((List.hd rows).Row.value = 3.0)

let test_late_event_after_punctuation () =
  (* An event strictly older than a punctuation-advanced watermark must
     raise Late_event carrying the offending event. *)
  let plan = Plan.naive Aggregate.Min [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  Stream_exec.advance t 8;
  (match Stream_exec.feed t (ev 5 "k" 1.0) with
  | exception Stream_exec.Late_event e ->
      check_int "payload is the late event" 5 e.Event.time
  | _ -> Alcotest.fail "late event must raise");
  (* the boundary itself is acceptable: watermark is strict *)
  Stream_exec.feed t (ev 8 "k" 1.0)

let test_advance_after_close_rejects () =
  let plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  let t = Stream_exec.create plan in
  ignore (Stream_exec.close t ~horizon:10);
  (match Stream_exec.advance t 20 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "advance after close must reject");
  match Stream_exec.close t ~horizon:20 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double close must reject"

let test_punctuation_only_stream_matches_oracle () =
  (* Feeding nothing but closing at a horizon equals the batch oracle
     on an empty stream: no rows, no crash, for a shared plan too. *)
  let outcome = Rewrite.optimize Aggregate.Sum example6_windows in
  let t = Stream_exec.create outcome.Rewrite.plan in
  Stream_exec.advance t 40;
  Stream_exec.advance t 80;
  let rows = Stream_exec.close t ~horizon:120 in
  check_int "no rows from punctuation alone" 0 (List.length rows)

let suite =
  [
    Alcotest.test_case "event basics" `Quick test_event_basics;
    Alcotest.test_case "row equal sets" `Quick test_row_equal_sets;
    Alcotest.test_case "batch window rows" `Quick test_batch_window_rows;
    Alcotest.test_case "batch empty instances" `Quick test_batch_empty_instances;
    Alcotest.test_case "batch hopping" `Quick test_batch_hopping;
    Alcotest.test_case "stream = oracle (example 6)" `Quick
      test_stream_matches_oracle_simple;
    Alcotest.test_case "late event raises" `Quick test_stream_late_event;
    Alcotest.test_case "firing on close" `Quick test_stream_advance_fires;
    Alcotest.test_case "closed executor rejects" `Quick
      test_stream_closed_rejects;
    Alcotest.test_case "incomplete instances dropped" `Quick
      test_incomplete_instances_dropped;
    Alcotest.test_case "punctuation fires instances" `Quick
      test_advance_fires_without_events;
    Alcotest.test_case "punctuation at watermark no-op" `Quick
      test_advance_at_watermark_is_noop;
    Alcotest.test_case "late event after punctuation" `Quick
      test_late_event_after_punctuation;
    Alcotest.test_case "advance/close after close reject" `Quick
      test_advance_after_close_rejects;
    Alcotest.test_case "punctuation-only stream" `Quick
      test_punctuation_only_stream_matches_oracle;
    Alcotest.test_case "metrics match cost model" `Quick
      test_metrics_match_cost_model;
    Alcotest.test_case "metrics hopping exact" `Quick test_metrics_hopping_exact;
    Alcotest.test_case "metrics naive baseline" `Quick
      test_metrics_naive_matches_baseline;
    Alcotest.test_case "run verify and compare" `Quick
      test_run_verify_and_compare;
    Alcotest.test_case "metrics unknown window reads 0" `Quick
      test_metrics_unknown_window_zero;
    Alcotest.test_case "metrics pp golden" `Quick test_metrics_pp_golden;
    Alcotest.test_case "per-node rows in/out" `Quick test_per_node_rows;
    Alcotest.test_case "incremental fallback reasons" `Quick
      test_fallback_reasons;
    Alcotest.test_case "compare_plans per-operator savings" `Quick
      test_compare_plans_savings;
    Alcotest.test_case "instances_containing boundaries" `Quick
      test_instances_containing_boundaries;
    Alcotest.test_case "instances_enclosing boundaries" `Quick
      test_instances_enclosing_boundaries;
    Alcotest.test_case "incremental simple" `Quick test_incremental_simple;
    Alcotest.test_case "incremental late event" `Quick
      test_incremental_late_event;
    Alcotest.test_case "incremental punctuation fires" `Quick
      test_incremental_punctuation_fires;
    prop_optimized_equals_oracle;
    prop_naive_equals_oracle;
    prop_incremental_equals_naive;
    prop_incremental_rewritten_equals_oracle;
    Alcotest.test_case "median end to end" `Quick test_median_naive_end_to_end;
    Alcotest.test_case "no events" `Quick test_no_events;
    Alcotest.test_case "key skew" `Quick test_single_key_skew;
  ]
