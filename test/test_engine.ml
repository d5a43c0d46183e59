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

(* Count and session operators fire on their own schedule (count
   instances on arrival, sessions at their gap deadline); both must
   still sample activation latency and watermark delay like the hop
   operators, or their nodes show empty fire histograms. *)
let test_count_session_fire_histograms () =
  let sql =
    "SELECT k, SUM(v) FROM s GROUP BY k, WINDOWS(WINDOW(COUNTWINDOW(4, 2)), \
     WINDOW(SESSIONWINDOW(second, 3)))"
  in
  let plan =
    match Fw_sql.Compile.compile sql with
    | Ok c -> c.Fw_sql.Compile.outcome.Rewrite.plan
    | Error e -> Alcotest.failf "compile failed: %s" e
  in
  (* three ticks of events per key every eight ticks: count instances
     complete as events arrive, sessions (gap 3) close in each pause *)
  let events =
    List.concat_map
      (fun b ->
        List.concat_map
          (fun i -> [ ev ((b * 8) + i) "a" 1.0; ev ((b * 8) + i) "b" 2.0 ])
          [ 0; 1; 2 ])
      (List.init 10 Fun.id)
  in
  List.iter
    (fun mode ->
      let metrics = Metrics.create () in
      ignore (Stream_exec.run ~metrics ~mode plan ~horizon:100 events);
      let sampled name kind =
        List.filter_map
          (fun (e : Fw_obs.Registry.entry) ->
            match e.Fw_obs.Registry.metric with
            | Fw_obs.Registry.Histogram h
              when e.Fw_obs.Registry.name = name
                   && List.assoc_opt "kind" e.Fw_obs.Registry.labels = Some kind
              ->
                Some (Fw_obs.Histogram.count h)
            | _ -> None)
          (Fw_obs.Registry.entries (Metrics.registry metrics))
      in
      List.iter
        (fun kind ->
          List.iter
            (fun name ->
              match sampled name kind with
              | [ n ] ->
                  check_bool (Printf.sprintf "%s %s sampled" kind name) true
                    (n > 0)
              | l ->
                  Alcotest.failf "%s: expected one %s node, got %d" name kind
                    (List.length l))
            [ "node_fire_ns"; "node_fire_delay_ns" ])
        [ "win-count"; "win-session" ])
    [ Stream_exec.Naive; Stream_exec.Incremental ]

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

(* The range forms agree with the list views and pin the ramp-up, the
   empty enclosing range and tumbling windows. *)
let test_instance_ranges () =
  let wd = w ~r:10 ~s:2 in
  let range = Alcotest.(check (pair int int)) in
  (* ramp-up t < r: the range starts at instance 0 *)
  range "t=0" (0, 0) (Stream_exec.containing_range wd 0);
  range "t=3" (0, 1) (Stream_exec.containing_range wd 3);
  range "t=9" (0, 4) (Stream_exec.containing_range wd 9);
  (* full depth: r/s instances, sliding by one per slide *)
  range "t=10" (1, 5) (Stream_exec.containing_range wd 10);
  range "t=13" (2, 6) (Stream_exec.containing_range wd 13);
  (* non-aligned geometry: r/s is not an integer *)
  let nw = w ~r:7 ~s:3 in
  range "non-aligned t=6" (0, 2) (Stream_exec.containing_range nw 6);
  range "non-aligned t=7" (1, 2) (Stream_exec.containing_range nw 7);
  (* enclosing: a fragment at the stream start lands only in instance 0 *)
  range "[0,2)" (0, 0) (Stream_exec.enclosing_range wd ~lo:0 ~hi:2);
  range "[10,12)" (1, 5) (Stream_exec.enclosing_range wd ~lo:10 ~hi:12);
  (* empty ranges: misaligned width r, and wider than r *)
  let empty name (first, last) = check_bool name true (first > last) in
  empty "[1,11) empty" (Stream_exec.enclosing_range wd ~lo:1 ~hi:11);
  empty "[0,11) empty" (Stream_exec.enclosing_range wd ~lo:0 ~hi:11);
  empty "[4,16) empty" (Stream_exec.enclosing_range wd ~lo:4 ~hi:16);
  (* tumbling: exactly one instance per time, switching at the boundary;
     a sub-interval is enclosed iff it stays inside one instance *)
  let tw = tumbling 10 in
  range "tumbling t=0" (0, 0) (Stream_exec.containing_range tw 0);
  range "tumbling t=9" (0, 0) (Stream_exec.containing_range tw 9);
  range "tumbling t=10" (1, 1) (Stream_exec.containing_range tw 10);
  range "tumbling [10,15)" (1, 1) (Stream_exec.enclosing_range tw ~lo:10 ~hi:15);
  range "tumbling [10,20)" (1, 1) (Stream_exec.enclosing_range tw ~lo:10 ~hi:20);
  empty "tumbling [5,15) empty" (Stream_exec.enclosing_range tw ~lo:5 ~hi:15);
  (* the list views are the ranges, element for element *)
  List.iter
    (fun (win, t) ->
      let first, last = Stream_exec.containing_range win t in
      check_bool
        (Printf.sprintf "%s t=%d list view" (Window.to_string win) t)
        true
        (Stream_exec.instances_containing win t
        = List.init (last - first + 1) (( + ) first)))
    [ (wd, 0); (wd, 9); (wd, 37); (nw, 20); (tw, 15) ]

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

(* --- fire index --- *)

(* Key [""] is the least key, so the first pair a watermark [wm] must
   leave pending is [(wm + 1, "")]: a sweep that takes the due pairs
   must stop exactly before that pair, and it must stay in the index. *)
let test_fire_index_empty_key_pivot () =
  let win = w ~r:2 ~s:1 in
  let t = Stream_exec.create (Plan.naive Aggregate.Sum [ win ]) in
  (* t=8 lies in [7,9) and [8,10) *)
  Stream_exec.feed t (ev 8 "" 1.0);
  Stream_exec.feed t (ev 8 "a" 2.0);
  Stream_exec.advance t 9;
  let rows () = List.init (Stream_exec.row_count t) (Stream_exec.row t) in
  let shape r =
    (Interval.lo r.Row.interval, Interval.hi r.Row.interval, r.Row.key)
  in
  let rows_t = Alcotest.(list (triple int int string)) in
  Alcotest.check rows_t "wm=9 fires only [7,9)"
    [ (7, 9, ""); (7, 9, "a") ]
    (List.map shape (rows ()));
  Stream_exec.advance t 10;
  Alcotest.check rows_t "wm=10 fires the pivot instance too"
    [ (7, 9, ""); (7, 9, "a"); (8, 10, ""); (8, 10, "a") ]
    (List.map shape (rows ()))

(* The fire index is built incrementally (a pair at each instance's
   birth) in a running executor, and from the store in an imported one.
   Both must fire the same instances: after a prefix, export and import,
   advance both to the same watermark and finish the stream; rows (in
   emission order) and the cost counters charged after the export must
   be identical. *)
let gen_fire_index_case =
  QCheck2.Gen.(
    let* ws = gen_window_set ~max_size:4 () in
    let* rewrite = bool in
    let* mode = oneofl [ Stream_exec.Naive; Stream_exec.Incremental ] in
    let* agg = oneofl [ Aggregate.Sum; Aggregate.Max; Aggregate.Stdev ] in
    let* seed = int_range 0 10000 in
    let* cut = float_range 0.0 1.0 in
    let* wm_at = float_range 0.0 1.0 in
    return (ws, rewrite, mode, agg, seed, cut, wm_at))

let print_fire_index_case (ws, rewrite, mode, agg, seed, cut, wm_at) =
  Printf.sprintf "%s %s %s %s seed=%d cut=%.3f wm=%.3f" (print_window_list ws)
    (if rewrite then "rewritten" else "naive")
    (match mode with Stream_exec.Naive -> "Naive" | Incremental -> "Incremental")
    (Aggregate.to_string agg) seed cut wm_at

let prop_fire_index_complete =
  qtest ~count:150 "fire index: export/import fires the same instances"
    gen_fire_index_case print_fire_index_case
    (fun (ws, rewrite, mode, agg, seed, cut, wm_at) ->
      let plan =
        if rewrite then
          match Rewrite.optimize agg ws with
          | outcome -> outcome.Rewrite.plan
          | exception _ -> Plan.naive agg ws
        else Plan.naive agg ws
      in
      let horizon = equiv_horizon ws in
      let events =
        Fw_workload.Event_gen.varied (Fw_util.Prng.create seed)
          { Fw_workload.Event_gen.default_config with keys = [ ""; "a"; "b" ] }
          ~eta_max:3 ~horizon
      in
      let cut = int_of_float (cut *. float_of_int horizon) in
      let wm = cut + int_of_float (wm_at *. float_of_int (horizon - cut)) in
      let ma = Metrics.create () in
      let a = Stream_exec.create ~metrics:ma ~mode plan in
      List.iter (fun e -> if e.Event.time < cut then Stream_exec.feed a e) events;
      let before = Metrics.per_window ma in
      let mb = Metrics.create () in
      let rows t = List.init (Stream_exec.row_count t) (Stream_exec.row t) in
      let b =
        Stream_exec.import ~metrics:mb plan ~rows:(rows a)
          (Stream_exec.export a)
      in
      let charged_since_export () =
        List.filter_map
          (fun (win, n) ->
            let n0 = try List.assoc win before with Not_found -> 0 in
            if n > n0 then Some (win, n - n0) else None)
          (Metrics.per_window ma)
      in
      let charged m = List.filter (fun (_, n) -> n > 0) (Metrics.per_window m) in
      Stream_exec.advance a wm;
      Stream_exec.advance b wm;
      let same_at_wm =
        rows a = rows b && charged_since_export () = charged mb
      in
      List.iter
        (fun e ->
          if e.Event.time >= wm && e.Event.time < horizon then begin
            Stream_exec.feed a e;
            Stream_exec.feed b e
          end)
        events;
      let ra = Stream_exec.close a ~horizon and rb = Stream_exec.close b ~horizon in
      same_at_wm && ra = rb && charged_since_export () = charged mb)

(* --- pane roll --- *)

(* A roll seals only its first pane and fires every instance it
   completes in one pass over the keys.  One watermark crossing [j]
   pane boundaries must therefore equal [j] single-boundary
   watermarks: the same rows, in the same per-(node, key) emission
   order (the order downstream folds see; across keys of one instance
   the order is the store's visit order, which no path pins), the same
   cost counters and the same per-node fire, pane-flush and
   SWAG-eviction counts.  SUM slides by subtract-on-evict, MAX by
   two-stacks; the budget-0 pool spills every entry between
   accesses. *)
let gen_pane_roll_case =
  QCheck2.Gen.(
    let gen_aligned =
      let* s = int_range 1 6 in
      let* k = int_range 1 4 in
      return (Window.make ~range:(k * s) ~slide:s)
    in
    let* n = int_range 1 3 in
    let* ws = list_repeat n gen_aligned in
    let* rewrite = bool in
    let* agg = oneofl [ Aggregate.Sum; Aggregate.Max ] in
    let* spilled = bool in
    let* seed = int_range 0 10000 in
    let* cut = float_range 0.0 1.0 in
    let* jump = int_range 0 30 in
    return (Window.dedup ws, rewrite, agg, spilled, seed, cut, jump))

let print_pane_roll_case (ws, rewrite, agg, spilled, seed, cut, jump) =
  Printf.sprintf "%s %s %s %s seed=%d cut=%.3f jump=%d" (print_window_list ws)
    (if rewrite then "rewritten" else "naive")
    (Aggregate.to_string agg)
    (if spilled then "budget-0" else "resident")
    seed cut jump

(* Per-node counters of the pane and window operators, by labels. *)
let node_counters m =
  List.filter_map
    (fun e ->
      match e.Fw_obs.Registry.metric with
      | Fw_obs.Registry.Counter c
        when List.mem e.Fw_obs.Registry.name
               [ "node_fires_total"; "node_pane_flushes_total";
                 "node_swag_evictions_total" ] ->
          Some (e.Fw_obs.Registry.name, e.labels, Fw_obs.Counter.get c)
      | _ -> None)
    (Fw_obs.Registry.entries (Metrics.registry m))

(* Rows grouped by (window, key), each group in emission order. *)
let by_node_key rows =
  List.stable_sort
    (fun a b ->
      match Window.compare a.Row.window b.Row.window with
      | 0 -> String.compare a.Row.key b.Row.key
      | c -> c)
    rows

(* Each window's rows in ascending instance order. *)
let ascending_per_node rows =
  let last = Hashtbl.create 8 in
  List.for_all
    (fun r ->
      let lo = Interval.lo r.Row.interval in
      let ok =
        match Hashtbl.find_opt last r.Row.window with
        | Some prev -> prev <= lo
        | None -> true
      in
      Hashtbl.replace last r.Row.window lo;
      ok)
    rows

let prop_pane_roll_multi_equals_single =
  qtest ~count:100 "pane roll: one j-boundary watermark = j single steps"
    gen_pane_roll_case print_pane_roll_case
    (fun (ws, rewrite, agg, spilled, seed, cut, jump) ->
      let plan =
        if rewrite then
          match Rewrite.optimize agg ws with
          | outcome -> outcome.Rewrite.plan
          | exception _ -> Plan.naive agg ws
        else Plan.naive agg ws
      in
      let horizon = 90 in
      let events =
        Fw_workload.Event_gen.varied (Fw_util.Prng.create seed)
          {
            Fw_workload.Event_gen.default_config with
            keys = [ "a"; "b"; "c"; "d"; "e"; "f" ];
          }
          ~eta_max:3 ~horizon
      in
      let cut = int_of_float (cut *. float_of_int horizon) in
      let wm = cut + jump in
      let with_pools f =
        if not spilled then f None None
        else
          let pa = Fw_spill.Pool.create ~budget:0 ()
          and pb = Fw_spill.Pool.create ~budget:0 () in
          Fun.protect
            ~finally:(fun () ->
              Fw_spill.Pool.close pa;
              Fw_spill.Pool.close pb)
            (fun () -> f (Some pa) (Some pb))
      in
      with_pools (fun spill_a spill_b ->
          let ma = Metrics.create () and mb = Metrics.create () in
          let make metrics spill =
            Stream_exec.create ~metrics ~mode:inc ?spill plan
          in
          let a = make ma spill_a and b = make mb spill_b in
          let rows t =
            List.init (Stream_exec.row_count t) (Stream_exec.row t)
          in
          List.iter
            (fun e ->
              if e.Event.time < cut then begin
                Stream_exec.feed a e;
                Stream_exec.feed b e
              end)
            events;
          let n0 = Stream_exec.row_count a in
          Stream_exec.advance a wm;
          (* every pane boundary of every window up to [wm], one at a
             time (those at or below the watermark are no-ops) *)
          for t = 0 to wm do
            if t = wm || List.exists (fun w -> t mod Window.slide w = 0) ws
            then Stream_exec.advance b t
          done;
          let rolled = List.filteri (fun i _ -> i >= n0) (rows a) in
          let same () =
            by_node_key (rows a) = by_node_key (rows b)
            && Metrics.per_window ma = Metrics.per_window mb
            && node_counters ma = node_counters mb
          in
          let same_at_wm = same () in
          List.iter
            (fun e ->
              if e.Event.time >= wm && e.Event.time < horizon then begin
                Stream_exec.feed a e;
                Stream_exec.feed b e
              end)
            events;
          let nc = Stream_exec.row_count a in
          ignore (Stream_exec.close a ~horizon);
          ignore (Stream_exec.close b ~horizon);
          let closed = List.filteri (fun i _ -> i >= nc) (rows a) in
          same_at_wm && same ()
          && ascending_per_node rolled
          && ascending_per_node closed))

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
  | exception Invalid_argument m ->
      check_string "close names itself" "Stream_exec.close: executor is closed"
        m
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

(* --- emission order of the stream-fw window set --- *)

(* The unsorted emission sequence of a 64-key incremental run of the
   end-to-end benchmark's window set (six correlated windows behind the
   factor window W<10,10>).  Within a pane roll an instance's keys come
   in the visit order of the per-key store, and checkpoint row logs and
   served taps keep that order, so a change of the store's table must
   not move it.  The digest below was recorded before the store's
   stdlib hashtable was replaced by its own table. *)
let stream_fw_sql =
  "SELECT SUM(value) FROM input GROUP BY key, \
   WINDOWS(WINDOW(HOPPINGWINDOW(second, 60, 10)), \
   WINDOW(HOPPINGWINDOW(second, 120, 20)), \
   WINDOW(HOPPINGWINDOW(second, 180, 30)), \
   WINDOW(HOPPINGWINDOW(second, 240, 40)), \
   WINDOW(TUMBLINGWINDOW(second, 300)), WINDOW(TUMBLINGWINDOW(second, 600)))"

let emission_digest t =
  let buf = Buffer.create 4096 in
  for i = 0 to Stream_exec.row_count t - 1 do
    let r = Stream_exec.row t i in
    Printf.bprintf buf "%s|%d|%d|%s|%Ld\n"
      (Window.to_string r.Row.window)
      (Interval.lo r.Row.interval) (Interval.hi r.Row.interval) r.Row.key
      (Int64.bits_of_float r.Row.value)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Feed the 64-key stream in batches of 1024, digest the engine image
   exported at the first batch boundary past [horizon / 2], close, and
   return the row count, the emission digest and the image digest. *)
let stream_fw_emission ?(mode = inc) plan =
  let t = Stream_exec.create ~mode plan in
  let rng = Fw_util.Prng.create 19 in
  let horizon = 1200 and eta = 16 in
  let batch = ref [] and pending = ref 0 and image = ref "" in
  let flush time =
    Stream_exec.feed_batch t (Fw_engine.Batch.of_events (List.rev !batch));
    batch := [];
    pending := 0;
    if !image = "" && 2 * time >= horizon then
      image := Digest.to_hex (Digest.string (Stream_exec.export t))
  in
  for time = 0 to horizon - 1 do
    for _ = 1 to eta do
      let key = Printf.sprintf "k%05d" (Fw_util.Prng.int rng 64) in
      let value = float_of_int (Fw_util.Prng.int rng 400) *. 0.25 in
      batch := ev time key value :: !batch;
      incr pending;
      if !pending = 1024 then flush time
    done
  done;
  if !pending > 0 then flush horizon;
  ignore (Stream_exec.close t ~horizon);
  (Stream_exec.row_count t, emission_digest t, !image)

(* Both plans: the rewritten one (pane-fed factor window, window-fed
   per-instance nodes) and the unrewritten one, whose six windows are
   pane nodes and so emit straight in visit order. *)
let test_stream_fw_emission_order () =
  let outcome =
    match Fw_sql.Compile.compile ~eta:256 ~factor_windows:true stream_fw_sql with
    | Ok c -> c.Fw_sql.Compile.outcome
    | Error e -> Alcotest.fail e
  in
  let rows, digest, _ = stream_fw_emission outcome.Rewrite.plan in
  check_int "rewritten: rows" 15104 rows;
  check_string "rewritten: emission digest" "d76973eae4b1e36dad20f969350f721f" digest;
  let rows, digest, _ = stream_fw_emission outcome.Rewrite.naive_plan in
  check_int "unrewritten: rows" 15104 rows;
  check_string "unrewritten: emission digest" "28f2e22cf6927a1f294ba31d8c044635" digest

(* The pane shape of the spill benchmark (MAX over H600/60, no factor
   window) on 4000 uniform keys, resident and under a 32 KiB budget.
   Each pane store grows past two thousand keys through many resizes
   of its table and is cleared at every roll, so the emission sequence
   pins the visit order across growth and clears after growth.  The
   digests were recorded before the table's probe buckets were split
   from its visit order. *)
let test_wide_pane_emission_pinned () =
  let plan =
    match
      Fw_sql.Compile.compile ~eta:64 ~factor_windows:false
        "SELECT MAX(value) FROM input GROUP BY key, \
         WINDOWS(WINDOW(HOPPINGWINDOW(second, 600, 60)))"
    with
    | Ok c -> c.Fw_sql.Compile.outcome.Rewrite.plan
    | Error e -> Alcotest.fail e
  in
  let run spill =
    let t = Stream_exec.create ~mode:inc ?spill plan in
    let rng = Fw_util.Prng.create 23 in
    let horizon = 1200 in
    for time = 0 to horizon - 1 do
      let evs =
        List.init 64 (fun _ ->
            let key = Printf.sprintf "w%04d" (Fw_util.Prng.int rng 4000) in
            ev time key (float_of_int (Fw_util.Prng.int rng 1000) *. 0.5))
      in
      Stream_exec.feed_batch t (Fw_engine.Batch.of_events evs)
    done;
    ignore (Stream_exec.close t ~horizon);
    (Stream_exec.row_count t, emission_digest t)
  in
  let rows, digest = run None in
  check_int "resident: rows" 43999 rows;
  check_string "resident: emission digest"
    "8505c0a7f3e1a8084136007e646df9dc" digest;
  let pool = Fw_spill.Pool.create ~budget:(32 * 1024) () in
  let rows, digest =
    Fun.protect ~finally:(fun () -> Fw_spill.Pool.close pool) (fun () ->
        run (Some pool))
  in
  check_int "budgeted: rows" 43999 rows;
  check_string "budgeted: emission digest"
    "555aaa24a4c9bd687a8f1670ad50dbb7" digest

(* The same stream in Naive mode, where every node of both plans runs
   the per-instance operator, plus the count-domain mirror of the
   bench's hopping4 set (count4), whose nodes run the count operator.
   Besides the emission order these pin the engine image exported
   mid-run: per-key pending instances must encode to the same bytes
   whatever structure holds them.  The digests were recorded before the
   per-instance operator's pending maps were replaced by rings. *)
let count4 =
  [
    Window.count_hop ~range:10 ~slide:2;
    Window.count_hop ~range:12 ~slide:4;
    Window.count_hop ~range:8 ~slide:2;
    Window.count_hop ~range:30 ~slide:3;
  ]

let test_naive_emission_and_image_pinned () =
  let outcome =
    match Fw_sql.Compile.compile ~eta:256 ~factor_windows:true stream_fw_sql with
    | Ok c -> c.Fw_sql.Compile.outcome
    | Error e -> Alcotest.fail e
  in
  let count_rw = Rewrite.optimize Aggregate.Sum count4 in
  let check name plan ~rows ~digest ~image =
    let rows', digest', image' =
      stream_fw_emission ~mode:Stream_exec.Naive plan
    in
    check_int (name ^ ": rows") rows rows';
    check_string (name ^ ": emission digest") digest digest';
    check_string (name ^ ": mid-run image digest") image image'
  in
  check "naive rewritten" outcome.Rewrite.plan ~rows:15104
    ~digest:"d76973eae4b1e36dad20f969350f721f"
    ~image:"24f6a7a093f6ed0defa89cc3d13025ab";
  check "naive unrewritten" outcome.Rewrite.naive_plan ~rows:15104
    ~digest:"d76973eae4b1e36dad20f969350f721f"
    ~image:"08d4d507972170d0d091aab948ed45aa";
  check "count4 rewritten" count_rw.Rewrite.plan ~rows:29172
    ~digest:"f351b3a1a97731b5dd7ec9a7acd812b8"
    ~image:"e967f8254900dbba2b5867f982e9c4c1";
  check "count4 unrewritten" count_rw.Rewrite.naive_plan ~rows:29172
    ~digest:"eef0805cafba094da5d397d78f8fc270"
    ~image:"d8a45819d344569285bc116013aa7233"

(* A per-key instance list in an engine image must be strictly
   ascending in [hi], on the window's instance grid ([hi = m·s + r],
   [m >= 0]) and carry a positive item count.  The image below is
   hand-built with the [Bin] writers for a one-window plan holding one
   key; each malformed list must fail the import as a corrupt image,
   for the per-instance and the count-window operator alike. *)
let test_import_rejects_bad_instance_lists () =
  let module Bin = Fw_spill.Bin in
  (* [node] writes the window node's tag and scalar cells, [entry] the
     fields of the key's entry that precede its instance list *)
  let image plan ~node ~entry instances =
    let b = Buffer.create 128 in
    Bin.w_u8 b 0 (* Naive *);
    Bin.w_i64 b 0 (* source watermark *);
    let nodes = Plan.nodes plan in
    Bin.w_i64 b (Array.length nodes);
    Array.iter
      (function
        | Plan.Win_agg _ ->
            node b;
            Bin.w_i64 b 1 (* one key *);
            Bin.w_string b "k";
            entry b;
            Bin.w_list b
              (fun b (hi, items) ->
                Bin.w_i64 b hi;
                Fw_agg.Bincodec.w_state b
                  (Fw_agg.Combine.of_value Aggregate.Sum 1.0);
                Bin.w_i64 b items)
              instances
        | Plan.Source | Plan.Multicast _ | Plan.Filter _ | Plan.Union _ ->
            Bin.w_u8 b 0)
      nodes;
    Buffer.contents b
  in
  let imports (plan, node, entry, _) instances =
    match Stream_exec.import plan ~rows:[] (image plan ~node ~entry instances) with
    | _ -> true
    | exception Invalid_argument m ->
        check_bool ("corrupt-image message: " ^ m) true
          (Astring_contains.contains m "corrupt image");
        false
  in
  let per_instance =
    ( Plan.naive Aggregate.Sum [ w ~r:4 ~s:2 ],
      (fun b ->
        Bin.w_u8 b 1;
        Bin.w_i64 b 0 (* node watermark *)),
      ignore,
      "per-instance" )
  and count =
    ( Plan.naive Aggregate.Sum [ Window.count_hop ~range:4 ~slide:2 ],
      (fun b -> Bin.w_u8 b 3),
      (fun b -> Bin.w_i64 b 9 (* the key's ordinal high-water *)),
      "count" )
  in
  List.iter
    (fun ((_, _, _, kind) as op) ->
      check_bool (kind ^ ": well-formed list imports") true
        (imports op [ (6, 1); (8, 2) ]);
      List.iter
        (fun (name, instances) ->
          check_bool (kind ^ ": " ^ name ^ " rejected") false
            (imports op instances))
        [
          ("duplicate hi", [ (6, 1); (6, 1) ]);
          ("descending hi", [ (8, 1); (6, 1) ]);
          ("off-grid hi", [ (7, 1) ]);
          ("hi before instance 0", [ (2, 1) ]);
          ("zero items", [ (6, 0) ]);
          ("negative items", [ (6, -1) ]);
        ])
    [ per_instance; count ];
  (* the image's SUM states under a MIN plan *)
  List.iter
    (fun (windows, (_, node, entry, kind)) ->
      let plan = Plan.naive Aggregate.Min windows in
      check_bool (kind ^ ": state of another aggregate rejected") false
        (imports (plan, node, entry, kind) [ (6, 1) ]))
    [
      ([ w ~r:4 ~s:2 ], per_instance);
      ([ Window.count_hop ~range:4 ~slide:2 ], count);
    ]

(* --- pending-instance ring --- *)

(* Random fold ranges and front pops against a [Map] model of the
   pending instances.  Ranges come relative to the previous one (the
   engine's in-order pattern, with gaps between clusters and ranges
   starting below the front) or anywhere; lengths reach past the
   initial capacity, and runs of pops drive the shrink path.  After
   every operation the live (m, state, items) set, the births reported
   and the popped instances must match the model, and the codec must
   write exactly the bytes of the model's ascending binding list —
   the encoding the ring replaced — and decode back to them. *)
module Ring = Fw_engine.Ring
module Imodel = Map.Make (Int)

type ring_op = Fold of int * int * bool | Pop of int

let gen_ring_case =
  QCheck2.Gen.(
    let op =
      frequency
        [
          ( 5,
            let* delta = int_range (-6) 24 in
            let* len = int_range 1 40 in
            return (Fold (delta, len, true)) );
          ( 1,
            let* first = int_range 0 200 in
            let* len = int_range 1 12 in
            return (Fold (first, len, false)) );
          (3, map (fun n -> Pop n) (int_range 1 30));
        ]
    in
    let* s = int_range 1 5 in
    let* j = int_range 0 4 in
    let* ops = list_size (int_range 1 60) op in
    return (s, j, ops))

let print_ring_case (s, j, ops) =
  Printf.sprintf "s=%d r=%d [%s]" s ((3 * s) + j)
    (String.concat "; "
       (List.map
          (function
            | Fold (a, n, true) -> Printf.sprintf "+%d..%d" a n
            | Fold (a, n, false) -> Printf.sprintf "@%d..%d" a n
            | Pop n -> Printf.sprintf "pop %d" n)
          ops))

let prop_ring_matches_model =
  qtest ~count:300 "ring = map model (folds, pops, codec bytes)" gen_ring_case
    print_ring_case (fun (slide, j, ops) ->
      let module Bin = Fw_spill.Bin in
      let module Combine = Fw_agg.Combine in
      let range = (3 * slide) + j in
      let rg = Ring.create Aggregate.Sum and model = ref Imodel.empty in
      let prev_first = ref 0 and tick = ref 0 in
      let bytes_of_model () =
        let b = Buffer.create 64 in
        Bin.w_list b
          (fun b (m, (state, items)) ->
            Bin.w_i64 b ((m * slide) + range);
            Fw_agg.Bincodec.w_state b state;
            Bin.w_i64 b items)
          (Imodel.bindings !model);
        Buffer.contents b
      in
      let same (s1, n1) (s2, n2) = Combine.view s1 = Combine.view s2 && n1 = n2 in
      (* pop into a slot of a scratch column that held another state *)
      let pop rg =
        let c = Combine.Cols.create Aggregate.Sum 3 in
        Combine.Cols.of_value c 2 [| -1.0 |] 0;
        let items = Ring.pop_into rg c 2 in
        (Combine.Cols.get c 2, items)
      in
      let consistent () =
        let live = ref [] in
        Ring.iter (fun m state items -> live := (m, (state, items)) :: !live) rg;
        let b = Buffer.create 64 in
        Ring.write b ~range ~slide rg;
        let bytes = Buffer.contents b in
        let decoded =
          Ring.read Aggregate.Sum ~range ~slide (Bin.reader bytes)
        in
        let b' = Buffer.create 64 in
        Ring.write b' ~range ~slide decoded;
        List.length !live = Imodel.cardinal !model
        && List.for_all2
             (fun (m, x) (m', y) -> m = m' && same x y)
             (List.rev !live) (Imodel.bindings !model)
        && String.equal bytes (bytes_of_model ())
        && String.equal bytes (Buffer.contents b')
        && Ring.weight rg = Ring.weight decoded
        && Ring.weight rg
           = Imodel.fold
               (fun _ (st, _) acc -> acc + 64 + Fw_agg.Bincodec.state_weight st)
               !model 48
      in
      List.for_all
        (fun op ->
          incr tick;
          let v = float_of_int (!tick mod 17) *. 0.5 in
          (match op with
          | Fold (a, n, relative) ->
              let first = if relative then max 0 (!prev_first + a) else a in
              let last = first + n - 1 in
              prev_first := first;
              let born = ref [] in
              Ring.fold_value rg ~first ~last [| v |] 0 ~born:(fun m ->
                  born := m :: !born);
              let expected_born =
                List.filter
                  (fun m -> not (Imodel.mem m !model))
                  (List.init n (( + ) first))
              in
              if List.sort compare !born <> expected_born then
                QCheck2.Test.fail_reportf "births %s at %d..%d"
                  (String.concat "," (List.map string_of_int !born))
                  first last;
              for m = first to last do
                model :=
                  Imodel.update m
                    (function
                      | None -> Some (Combine.of_value Aggregate.Sum v, 1)
                      | Some (st, items) -> Some (Combine.add st v, items + 1))
                    !model
              done
          | Pop n ->
              for _ = 1 to n do
                match Imodel.min_binding_opt !model with
                | None -> ()
                | Some (m, x) ->
                    if Ring.front rg <> m then
                      QCheck2.Test.fail_reportf "front %d, model %d"
                        (Ring.front rg) m;
                    if not (same (pop rg) x) then
                      QCheck2.Test.fail_reportf "popped instance %d differs" m;
                    model := Imodel.remove m !model
              done);
          consistent ())
        ops)

(* The ring's accumulator columns against boxed states, for every
   aggregate: the same fold/pop script runs on a ring and on a map of
   [Combine] states, mixing raw values and sub-aggregates, in-order
   growth and out-of-order ranges (gaps and rebuild merges).  States
   compare as their [Bincodec] bytes, so nan payloads, signed zeros and
   the last bit of a Welford update all count. *)
type col_item = Raw of float | Partial of float list
type col_op = Cfold of int * int * bool * col_item | Cpop of int

let gen_col_value =
  QCheck2.Gen.(
    frequency
      [
        (4, map (fun i -> float_of_int i *. 0.25) (int_range (-40) 40));
        (2, map (fun d -> 1e8 +. d) (float_range (-2.0) 2.0));
        ( 1,
          oneofl
            [
              Float.nan;
              Float.neg Float.nan;
              Float.infinity;
              Float.neg_infinity;
              -0.0;
              0.0;
              5e-324;
              -5e-324;
              Float.min_float /. 3.0;
              1e308;
            ] );
      ])

let gen_cols_case =
  QCheck2.Gen.(
    let item =
      frequency
        [
          (3, map (fun v -> Raw v) gen_col_value);
          ( 2,
            map (fun vs -> Partial vs) (list_size (int_range 0 4) gen_col_value)
          );
        ]
    in
    let op =
      frequency
        [
          ( 5,
            let* delta = int_range (-6) 24 in
            let* len = int_range 1 40 in
            let* x = item in
            return (Cfold (delta, len, true, x)) );
          ( 1,
            let* first = int_range 0 200 in
            let* len = int_range 1 12 in
            let* x = item in
            return (Cfold (first, len, false, x)) );
          (3, map (fun n -> Cpop n) (int_range 1 30));
        ]
    in
    let* agg = oneofl Aggregate.all in
    let* s = int_range 1 5 in
    let* j = int_range 0 4 in
    let* ops = list_size (int_range 1 60) op in
    return (agg, s, j, ops))

let print_cols_case (agg, s, j, ops) =
  let item = function
    | Raw v -> Printf.sprintf "%h" v
    | Partial vs ->
        "[" ^ String.concat "," (List.map (Printf.sprintf "%h") vs) ^ "]"
  in
  Printf.sprintf "%s s=%d r=%d [%s]" (Aggregate.to_string agg) s
    ((3 * s) + j)
    (String.concat "; "
       (List.map
          (function
            | Cfold (a, n, true, x) -> Printf.sprintf "+%d..%d %s" a n (item x)
            | Cfold (a, n, false, x) -> Printf.sprintf "@%d..%d %s" a n (item x)
            | Cpop n -> Printf.sprintf "pop %d" n)
          ops))

let prop_ring_columns_match_states =
  qtest ~count:400 "ring columns = state model, every aggregate" gen_cols_case
    print_cols_case (fun (agg, slide, j, ops) ->
      let module Bin = Fw_spill.Bin in
      let module Combine = Fw_agg.Combine in
      let module Bincodec = Fw_agg.Bincodec in
      let range = (3 * slide) + j in
      let rg = Ring.create agg and model = ref Imodel.empty in
      let prev_first = ref 0 in
      let state_bytes st =
        let b = Buffer.create 32 in
        Bincodec.w_state b st;
        Buffer.contents b
      in
      let same (s1, n1) (s2, n2) =
        String.equal (state_bytes s1) (state_bytes s2) && n1 = n2
      in
      (* sub-aggregates fold from, and pops land in, a slot of a wider
         scratch column whose other slots hold other states *)
      let scratch = Combine.Cols.create agg 3 in
      Combine.Cols.of_value scratch 0 [| 1.5 |] 0;
      Combine.Cols.of_value scratch 2 [| -2.5 |] 0;
      let pop rg =
        let items = Ring.pop_into rg scratch 2 in
        (Combine.Cols.get scratch 2, items)
      in
      let ring_bytes rg =
        let b = Buffer.create 64 in
        Ring.write b ~range ~slide rg;
        Buffer.contents b
      in
      let model_bytes () =
        let b = Buffer.create 64 in
        Bin.w_list b
          (fun b (m, (state, items)) ->
            Bin.w_i64 b ((m * slide) + range);
            Bincodec.w_state b state;
            Bin.w_i64 b items)
          (Imodel.bindings !model);
        Buffer.contents b
      in
      let model_weight () =
        Imodel.fold
          (fun _ (st, _) acc -> acc + 64 + Bincodec.state_weight st)
          !model 48
      in
      let consistent () =
        let live = ref [] in
        Ring.iter (fun m state items -> live := (m, (state, items)) :: !live) rg;
        let bytes = ring_bytes rg in
        let decoded = Ring.read agg ~range ~slide (Bin.reader bytes) in
        List.length !live = Imodel.cardinal !model
        && List.for_all2
             (fun (m, x) (m', y) -> m = m' && same x y)
             (List.rev !live) (Imodel.bindings !model)
        && String.equal bytes (model_bytes ())
        && String.equal bytes (ring_bytes decoded)
        && Ring.weight rg = model_weight ()
        && Ring.weight decoded = model_weight ()
      in
      let sub vs =
        match vs with
        | [] -> Combine.identity agg
        | v :: rest -> List.fold_left Combine.add (Combine.of_value agg v) rest
      in
      List.for_all
        (fun op ->
          (match op with
          | Cfold (a, n, relative, x) ->
              let first = if relative then max 0 (!prev_first + a) else a in
              let last = first + n - 1 in
              prev_first := first;
              let births = ref [] in
              let born m = births := m :: !births in
              let birth, fold =
                match x with
                | Raw v ->
                    Ring.fold_value rg ~first ~last [| v |] 0 ~born;
                    (Combine.of_value agg v, fun st -> Combine.add st v)
                | Partial vs ->
                    let x = sub vs in
                    Combine.Cols.set scratch 1 x;
                    Ring.fold_slot rg ~first ~last scratch 1 ~born;
                    (x, fun st -> Combine.merge st x)
              in
              let expected_births =
                List.filter
                  (fun m -> not (Imodel.mem m !model))
                  (List.init n (( + ) first))
              in
              if List.sort compare !births <> expected_births then
                QCheck2.Test.fail_reportf "births %s at %d..%d"
                  (String.concat "," (List.map string_of_int !births))
                  first last;
              for m = first to last do
                model :=
                  Imodel.update m
                    (function
                      | None -> Some (birth, 1)
                      | Some (st, items) -> Some (fold st, items + 1))
                    !model
              done
          | Cpop n ->
              for _ = 1 to n do
                match Imodel.min_binding_opt !model with
                | None -> ()
                | Some (m, x) ->
                    if Ring.front rg <> m then
                      QCheck2.Test.fail_reportf "front %d, model %d"
                        (Ring.front rg) m;
                    if not (same (pop rg) x) then
                      QCheck2.Test.fail_reportf "popped instance %d differs" m;
                    (* the popped slot finalizes, and survives a
                       widening of its columns, as the boxed state *)
                    let bits = Int64.bits_of_float in
                    if
                      bits (Combine.Cols.finalize scratch 2)
                      <> bits (Combine.finalize (fst x))
                    then
                      QCheck2.Test.fail_reportf "instance %d finalizes apart" m;
                    let wide = Combine.Cols.grow scratch 5 in
                    if
                      not
                        (same (Combine.Cols.get wide 2, 0)
                           (Combine.Cols.get scratch 2, 0)
                        && same (Combine.Cols.get wide 4, 0)
                             (Combine.identity agg, 0))
                    then
                      QCheck2.Test.fail_reportf "instance %d widened apart" m;
                    model := Imodel.remove m !model
              done);
          consistent ())
        ops)

(* --- the result sink --- *)

(* Rows as bytes, so that nan equals itself and -0.0 differs from 0.0. *)
let row_bytes rows =
  List.map
    (fun r ->
      Printf.sprintf "%s|%d|%d|%s|%Lx"
        (Window.to_string r.Row.window)
        (Interval.lo r.Row.interval) (Interval.hi r.Row.interval) r.Row.key
        (Int64.bits_of_float r.Row.value))
    rows

let emitted t = List.init (Stream_exec.row_count t) (Stream_exec.row t)

(* [close] must return exactly [Row.sort] of the emission sequence that
   [row]/[row_count] expose, whatever the execution path: both modes,
   per-event and batched feeds, with and without a memory budget, on
   hop (aligned and not), count and session windows, naive and
   rewritten plans (in Incremental mode a rewritten plan has pane-fed
   outputs, which emit an instance's keys in store visit order, beside
   window-fed ones).  Values include -0.0, 0.0, infinities and nans.
   An executor rebuilt by [import] from a mid-run image and the rows
   emitted so far must close to the uninterrupted run's rows.  One
   rebuilt with each of those rows followed by a twin that ties with it
   under [Row.compare] (-0.0 for 0.0 and back, another nan payload)
   pins that ties keep their emission order. *)
let gen_sink_case =
  QCheck2.Gen.(
    let gen_time =
      let* s = int_range 1 6 in
      let* k = int_range 1 4 in
      let* j = frequencyl [ (3, 0); (1, 1) ] in
      return (Window.make ~range:((k * s) + min j (s - 1)) ~slide:s)
    in
    let gen_count =
      let* s = int_range 1 4 in
      let* k = int_range 1 4 in
      return (Window.count_hop ~range:(k * s) ~slide:s)
    in
    let gen_session = map (fun gap -> Window.session ~gap) (int_range 1 8) in
    let* family = oneofl [ gen_time; gen_time; gen_count; gen_session ] in
    let* n = int_range 1 4 in
    let* ws = list_repeat n family in
    let* rewrite = bool in
    let* mode = oneofl [ Stream_exec.Naive; Stream_exec.Incremental ] in
    let* agg = oneofl Aggregate.all in
    let* batched = bool in
    let* budgeted = bool in
    let* seed = int_range 0 10000 in
    let* cut = float_range 0.0 1.0 in
    return (Window.dedup ws, rewrite, mode, agg, batched, budgeted, seed, cut))

let print_sink_case (ws, rewrite, mode, agg, batched, budgeted, seed, cut) =
  Printf.sprintf "%s %s %s %s %s %s seed=%d cut=%.3f" (print_window_list ws)
    (if rewrite then "rewritten" else "naive")
    (match mode with Stream_exec.Naive -> "Naive" | Incremental -> "Incremental")
    (Aggregate.to_string agg)
    (if batched then "batched" else "per-event")
    (if budgeted then "budget-0" else "resident")
    seed cut

let tie_twin r =
  let v = r.Row.value in
  let twin =
    if Float.is_nan v then
      Int64.(float_of_bits (logxor (bits_of_float v) 0x10L))
    else if v = 0.0 then -.v
    else v
  in
  { r with Row.value = twin }

let sink_values =
  [| 0.0; -0.0; nan; Int64.float_of_bits 0x7ff8000000000123L; 1.0; -2.5;
     4.0; infinity; neg_infinity |]

let prop_close_sorts_emission =
  qtest ~count:150 "close = Row.sort of the emission sequence"
    gen_sink_case print_sink_case
    (fun (ws, rewrite, mode, agg, batched, budgeted, seed, cut) ->
      let plan =
        if rewrite then
          match Rewrite.optimize agg ws with
          | outcome -> outcome.Rewrite.plan
          | exception _ -> Plan.naive agg ws
        else Plan.naive agg ws
      in
      let horizon = 80 in
      let rng = Fw_util.Prng.create seed in
      let keys = [| "c"; ""; "a"; "d"; "b" |] in
      let events =
        List.concat
          (List.init horizon (fun time ->
               List.init (Fw_util.Prng.int rng 4) (fun _ ->
                   ev time
                     keys.(Fw_util.Prng.int rng (Array.length keys))
                     sink_values.(Fw_util.Prng.int rng (Array.length sink_values)))))
      in
      let cut = int_of_float (cut *. float_of_int horizon) in
      let feed t events =
        if not batched then List.iter (Stream_exec.feed t) events
        else
          (* batches of 1 to 6 events *)
          let rec go = function
            | [] -> ()
            | events ->
                let n = 1 + Fw_util.Prng.int rng 6 in
                let b = List.filteri (fun i _ -> i < n) events in
                Stream_exec.feed_batch t (Fw_engine.Batch.of_events b);
                go (List.filteri (fun i _ -> i >= n) events)
          in
          go events
      in
      let pools = ref [] in
      let spill () =
        if not budgeted then None
        else begin
          let p = Fw_spill.Pool.create ~budget:0 () in
          pools := p :: !pools;
          Some p
        end
      in
      Fun.protect
        ~finally:(fun () -> List.iter Fw_spill.Pool.close !pools)
        (fun () ->
          let whole = Stream_exec.create ~mode ?spill:(spill ()) plan in
          feed whole events;
          let closed = Stream_exec.close whole ~horizon in
          let a = Stream_exec.create ~mode ?spill:(spill ()) plan in
          let before, after = List.partition (fun e -> e.Event.time < cut) events in
          feed a before;
          let image = Stream_exec.export a in
          let b =
            Stream_exec.import ?spill:(spill ()) plan ~rows:(emitted a) image
          in
          let twins =
            Stream_exec.import ?spill:(spill ()) plan
              ~rows:(List.concat_map (fun r -> [ r; tie_twin r ]) (emitted a))
              image
          in
          feed b after;
          feed twins after;
          let rebuilt = Stream_exec.close b ~horizon in
          let tied = Stream_exec.close twins ~horizon in
          let sorted t = row_bytes (Row.sort (emitted t)) in
          row_bytes closed = sorted whole
          && row_bytes rebuilt = sorted b
          && row_bytes rebuilt = row_bytes closed
          && row_bytes tied = sorted twins))

(* Rows that tie under [Row.compare] (one slot; values -0.0 and 0.0, or
   two nans) keep their emission order, also when they reach the sink
   through [import] interleaved with other windows' rows and out of
   order. *)
let test_close_keeps_tie_order () =
  let t10 = tumbling 10 and t20 = tumbling 20 in
  let plan = Plan.naive Aggregate.Sum [ t10; t20 ] in
  let image = Stream_exec.export (Stream_exec.create plan) in
  let nan2 = Int64.float_of_bits 0x7ff8000000000123L in
  let rows =
    [ row t20 0 20 "b" 0.0; row t10 10 20 "a" 1.0; row t20 0 20 "b" (-0.0);
      row t10 0 10 "a" nan2; row t10 0 10 "a" nan; row t20 0 20 "a" 2.0;
      row t20 0 20 "b" 0.0; row t10 0 10 "a" nan2 ]
  in
  let t = Stream_exec.import plan ~rows image in
  let closed = Stream_exec.close t ~horizon:0 in
  Alcotest.(check (list string))
    "close = Row.sort" (row_bytes (Row.sort rows)) (row_bytes closed);
  Alcotest.(check (list string))
    "emission order untouched" (row_bytes rows) (row_bytes (emitted t))

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
    Alcotest.test_case "count/session fire histograms" `Quick
      test_count_session_fire_histograms;
    Alcotest.test_case "incremental fallback reasons" `Quick
      test_fallback_reasons;
    Alcotest.test_case "compare_plans per-operator savings" `Quick
      test_compare_plans_savings;
    Alcotest.test_case "instances_containing boundaries" `Quick
      test_instances_containing_boundaries;
    Alcotest.test_case "instances_enclosing boundaries" `Quick
      test_instances_enclosing_boundaries;
    Alcotest.test_case "instance range boundaries" `Quick test_instance_ranges;
    Alcotest.test_case "fire index keeps the empty-key pivot" `Quick
      test_fire_index_empty_key_pivot;
    prop_fire_index_complete;
    prop_pane_roll_multi_equals_single;
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
    Alcotest.test_case "stream-fw emission order is pinned" `Quick
      test_stream_fw_emission_order;
    Alcotest.test_case "naive emission order and image bytes are pinned"
      `Quick test_naive_emission_and_image_pinned;
    Alcotest.test_case "import rejects malformed instance lists" `Quick
      test_import_rejects_bad_instance_lists;
    prop_ring_matches_model;
    prop_ring_columns_match_states;
    prop_close_sorts_emission;
    Alcotest.test_case "close keeps the emission order of ties" `Quick
      test_close_keeps_tie_order;
    Alcotest.test_case "wide pane emission order is pinned" `Quick
      test_wide_pane_emission_pinned;
  ]
