(* Corner cases across the stack that the per-module suites do not
   already pin down. *)
open Helpers
open Fw_window
module A1 = Fw_wcg.Algorithm1
module A2 = Fw_factor.Algorithm2
module Cost_model = Fw_wcg.Cost_model
module Plan = Fw_plan.Plan
module Rewrite = Fw_plan.Rewrite
module Stream_exec = Fw_engine.Stream_exec
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Evaluation = Factor_windows.Evaluation

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- degenerate window sets --- *)

let test_single_window_set () =
  let r = A2.best_of semantics_covered [ tumbling 7 ] in
  check_int "no sharing possible" 7 r.A1.total;
  check_int "just the window" 1 (Fw_wcg.Graph.node_count r.A1.graph)

let test_unit_window () =
  (* W<1,1> covers everything; it acts as a materialized virtual root. *)
  let ws = [ tumbling 1; tumbling 6; tumbling 15 ] in
  let r = A1.run semantics_partitioned ws in
  let parent w = (Window.Map.find w r.A1.assignments).A1.parent in
  check_bool "6 <- 1" true (parent (tumbling 6) = Some (tumbling 1));
  check_bool "15 <- 1" true (parent (tumbling 15) = Some (tumbling 1));
  check_int "alg1 total" 90 r.A1.total;
  (* A factor window between the unit window and {6, 15} still pays:
     W<3,3> costs 30 unit reads but halves both downstream reads
     (30+30 -> 10+10), so 90 drops to 80. *)
  let r2 = A2.best_of semantics_partitioned ws in
  check_int "factor W<3,3> improves to 80" 80 r2.A1.total;
  check_bool "factor present" true
    (List.exists (Window.equal (tumbling 3))
       (Fw_wcg.Graph.factor_windows r2.A1.graph))

let test_slide_one_hopping () =
  let w1 = w ~r:5 ~s:1 in
  let env = Cost_model.make_env [ w1 ] in
  check_int "period 5" 5 env.Cost_model.period;
  check_int "n = 1" 1 (Cost_model.recurrence_count env w1);
  let env2 = Cost_model.env_with_period 20 in
  check_int "n = 16 over 20" 16 (Cost_model.recurrence_count env2 w1)

let test_identical_cost_ties_deterministic () =
  (* two coverers with equal cost: deterministic choice, smaller wins *)
  let ws = [ tumbling 6; tumbling 3; w ~r:6 ~s:3 ] in
  let a = A1.run semantics_covered ws in
  let b = A1.run semantics_covered ws in
  check_bool "same assignment both runs" true
    (Window.Map.equal
       (fun x y -> x.A1.parent = y.A1.parent)
       a.A1.assignments b.A1.assignments)

(* --- executor corners --- *)

let test_watermark_monotone () =
  let plan = Plan.naive Fw_agg.Aggregate.Sum [ tumbling 5 ] in
  let t = Stream_exec.create plan in
  Stream_exec.advance t 10;
  Stream_exec.advance t 3 (* no-op, never goes backwards *);
  Stream_exec.feed t (ev 10 "k" 1.0);
  let rows = Stream_exec.close t ~horizon:15 in
  check_int "one row for [10,15)" 1 (List.length rows)

let test_event_at_horizon_boundary () =
  let plan = Plan.naive Fw_agg.Aggregate.Count [ tumbling 10 ] in
  (* run's filter drops events at time >= horizon *)
  let rows =
    Stream_exec.run plan ~horizon:10 [ ev 9 "k" 1.0; ev 10 "k" 1.0 ]
  in
  check_int "one row" 1 (List.length rows);
  check_bool "count 1 (the t=10 event excluded)" true
    ((List.hd rows).Row.value = 1.0)

let test_duplicate_timestamps_many_keys () =
  let plan = Plan.naive Fw_agg.Aggregate.Max [ tumbling 4 ] in
  let events =
    List.concat_map
      (fun k -> [ ev 1 k 1.0; ev 1 k 9.0; ev 1 k 5.0 ])
      [ "a"; "b"; "c" ]
  in
  let rows = Stream_exec.run plan ~horizon:4 events in
  check_int "three rows" 3 (List.length rows);
  List.iter (fun r -> check_bool "max 9" true (r.Row.value = 9.0)) rows

(* --- evaluation scaling --- *)

let test_bl_scales_linearly_with_eta () =
  let c1 = Evaluation.evaluate ~eta:1 semantics_partitioned example6_windows in
  let c100 =
    Evaluation.evaluate ~eta:100 semantics_partitioned example6_windows
  in
  check_int "BL x100" (100 * Evaluation.cost_of c1 Evaluation.BL)
    (Evaluation.cost_of c100 Evaluation.BL);
  (* WCG's shared part does not scale: total grows sublinearly *)
  check_bool "WCG sublinear" true
    (Evaluation.cost_of c100 Evaluation.WCG
    < 100 * Evaluation.cost_of c1 Evaluation.WCG)

(* --- overflow-bounded behavior --- *)

let test_env_overflow_raises () =
  let huge = Window.tumbling ((1 lsl 31) + 1) in
  let huge2 = Window.tumbling ((1 lsl 31) - 1) in
  let huge3 = Window.tumbling ((1 lsl 31) + 9) in
  match Cost_model.make_env [ huge; huge2; huge3 ] with
  | exception Fw_util.Arith.Overflow -> ()
  | env ->
      (* lcm may still fit; then costs must not wrap silently either *)
      check_bool "period positive" true (env.Cost_model.period > 0)

let test_trill_multiple_roots () =
  (* incomparable windows: multi-root plan keeps the top multicast *)
  let o = Rewrite.optimize Fw_agg.Aggregate.Min [ tumbling 7; tumbling 11 ] in
  let s = Fw_plan.Trill.render o.Rewrite.plan in
  check_bool "top multicast" true
    (Astring_contains.contains s ".Multicast(s => s");
  check_bool "both windows" true
    (Astring_contains.contains s "_7" && Astring_contains.contains s "_11")

let test_plan_pp_contains_structure () =
  let o = Rewrite.optimize Fw_agg.Aggregate.Sum example7_windows in
  let s = Format.asprintf "%a" Plan.pp o.Rewrite.plan in
  check_bool "source" true (Astring_contains.contains s "source");
  check_bool "factor marked" true (Astring_contains.contains s "(factor)");
  check_bool "union" true (Astring_contains.contains s "union")

let suite =
  [
    Alcotest.test_case "single-window set" `Quick test_single_window_set;
    Alcotest.test_case "unit window as root" `Quick test_unit_window;
    Alcotest.test_case "slide-1 hopping" `Quick test_slide_one_hopping;
    Alcotest.test_case "deterministic tie-breaking" `Quick
      test_identical_cost_ties_deterministic;
    Alcotest.test_case "watermark monotone" `Quick test_watermark_monotone;
    Alcotest.test_case "event at horizon boundary" `Quick
      test_event_at_horizon_boundary;
    Alcotest.test_case "duplicate timestamps, many keys" `Quick
      test_duplicate_timestamps_many_keys;
    Alcotest.test_case "BL scales linearly with eta" `Quick
      test_bl_scales_linearly_with_eta;
    Alcotest.test_case "overflow awareness" `Quick test_env_overflow_raises;
    Alcotest.test_case "trill multiple roots" `Quick test_trill_multiple_roots;
    Alcotest.test_case "plan pp structure" `Quick test_plan_pp_contains_structure;
  ]
