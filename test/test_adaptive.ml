(* Reorder buffer and adaptive re-optimization. *)
open Helpers
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Reference = Fw_engine.Reference
module Reorder = Fw_engine.Reorder
module Adaptive = Factor_windows.Adaptive
module Rewrite = Fw_plan.Rewrite
module Aggregate = Fw_agg.Aggregate

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- Reorder --- *)

let test_reorder_restores_order () =
  let plan = Fw_plan.Plan.naive Aggregate.Sum [ tumbling 10 ] in
  let events = List.init 40 (fun t -> ev t "k" 1.0) in
  let shuffled = Fw_util.Prng.shuffle (Fw_util.Prng.create 3) events in
  (* worst-case displacement is the whole stream: allow full lateness *)
  let rows, stats = Reorder.run ~lateness:40 plan ~horizon:40 shuffled in
  let oracle = Reference.run Aggregate.Sum [ tumbling 10 ] ~horizon:40 events in
  check_bool "rows = oracle" true (Row.equal_sets rows oracle);
  check_int "nothing dropped" 0 stats.Reorder.dropped_late;
  check_int "all released" 40 stats.Reorder.released

let test_reorder_bounded_lateness () =
  let plan = Fw_plan.Plan.naive Aggregate.Count [ tumbling 10 ] in
  (* event 5 arrives after event 9: displacement 4, within lateness 5 *)
  let events = [ ev 0 "k" 1.0; ev 9 "k" 1.0; ev 5 "k" 1.0; ev 12 "k" 1.0 ] in
  let rows, stats = Reorder.run ~lateness:5 plan ~horizon:20 events in
  check_int "no drops" 0 stats.Reorder.dropped_late;
  let oracle =
    Reference.run Aggregate.Count [ tumbling 10 ] ~horizon:20 (Event.sort events)
  in
  check_bool "rows = oracle" true (Row.equal_sets rows oracle)

let test_reorder_drops_too_late () =
  let plan = Fw_plan.Plan.naive Aggregate.Count [ tumbling 10 ] in
  (* with lateness 2, event at 1 after event at 9 is behind the frontier *)
  let events = [ ev 0 "k" 1.0; ev 9 "k" 1.0; ev 1 "k" 1.0 ] in
  let _, stats = Reorder.run ~lateness:2 plan ~horizon:20 events in
  check_int "one dropped" 1 stats.Reorder.dropped_late

let prop_reorder_equivalent =
  qtest ~count:60 "reorder(shuffled) = ordered execution"
    QCheck2.Gen.(pair (int_range 0 9999) (int_range 1 3))
    QCheck2.Print.(pair int int)
    (fun (seed, eta) ->
      let prng = Fw_util.Prng.create seed in
      let ws = [ w ~r:12 ~s:4; tumbling 6 ] in
      let events =
        Fw_workload.Event_gen.steady prng Fw_workload.Event_gen.default_config
          ~eta ~horizon:72
      in
      let shuffled = Fw_util.Prng.shuffle prng events in
      let outcome = Rewrite.optimize Aggregate.Max ws in
      let rows, stats =
        Reorder.run ~lateness:72 outcome.Rewrite.plan ~horizon:72 shuffled
      in
      stats.Reorder.dropped_late = 0
      && Row.equal_sets rows (Reference.run Aggregate.Max ws ~horizon:72 events))

(* --- Adaptive --- *)

(* Synthetic stream whose rate jumps at [change_at]. *)
let rate_change_events ~low ~high ~change_at ~horizon =
  List.concat
    (List.init horizon (fun t ->
         let rate = if t < change_at then low else high in
         List.init rate (fun i ->
             ev t "k" (float_of_int ((t + (7 * i)) mod 23)))))

(* A hopping window set whose optimal structure genuinely flips with
   the rate (found by searching best_of parent maps at eta 1 vs 8):
   factor windows that pay at one rate do not at the other. *)
let flip_windows =
  [ w ~r:12 ~s:6; w ~r:12 ~s:3; w ~r:20 ~s:10; w ~r:32 ~s:8 ]

let flip_period = 480 (* lcm of the ranges *)

let test_adaptive_switches_and_stays_correct () =
  let ws = flip_windows in
  let horizon = 3 * flip_period in
  let events =
    rate_change_events ~low:1 ~high:8 ~change_at:flip_period ~horizon
  in
  let rows, switches =
    Adaptive.run ~initial_eta:1 Aggregate.Min ws ~horizon events
  in
  let oracle = Reference.run Aggregate.Min ws ~horizon events in
  check_bool "rows = oracle across the switch" true
    (Row.equal_sets rows oracle);
  check_bool "at least one switch" true (switches <> []);
  let s = List.hd switches in
  check_bool "switch at a period boundary" true
    (s.Adaptive.at mod flip_period = 0);
  check_bool "rate tracked upward" true (s.Adaptive.eta_after > s.Adaptive.eta_before);
  check_bool "new plan cheaper at the new rate" true
    (s.Adaptive.cost_after < s.Adaptive.cost_before)

let test_adaptive_rate_drop () =
  let ws = flip_windows in
  let horizon = 3 * flip_period in
  let events =
    rate_change_events ~low:8 ~high:1 ~change_at:flip_period ~horizon
  in
  (* note: low/high swapped by the arguments *)
  let rows, switches =
    Adaptive.run ~initial_eta:8 Aggregate.Min ws ~horizon events
  in
  check_bool "a downward switch happens" true (switches <> []);
  check_bool "rows = oracle" true
    (Row.equal_sets rows (Reference.run Aggregate.Min ws ~horizon events))

let test_adaptive_steady_no_switch () =
  let ws = example7_windows in
  let events = rate_change_events ~low:2 ~high:2 ~change_at:0 ~horizon:480 in
  let rows, switches =
    Adaptive.run ~initial_eta:2 Aggregate.Min ws ~horizon:480 events
  in
  check_bool "no switches at steady rate" true (switches = []);
  check_bool "rows = oracle" true
    (Row.equal_sets rows (Reference.run Aggregate.Min ws ~horizon:480 events))

let test_adaptive_rejects_holistic () =
  match Adaptive.create Aggregate.Median example7_windows with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "holistic aggregates have nothing to adapt"

let prop_adaptive_always_oracle =
  qtest ~count:30 "adaptive output = oracle under random rate profiles"
    QCheck2.Gen.(
      let* seed = int_range 0 9999 in
      let* low = int_range 1 2 in
      let* high = int_range 4 8 in
      let* flip = bool in
      return (seed, low, high, flip))
    QCheck2.Print.(quad int int int bool)
    (fun (_seed, low, high, flip) ->
      let low, high = if flip then (high, low) else (low, high) in
      let ws = example7_windows in
      let horizon = 600 in
      let events = rate_change_events ~low ~high ~change_at:240 ~horizon in
      let rows, _ =
        Adaptive.run ~initial_eta:low Aggregate.Sum ws ~horizon events
      in
      Row.equal_sets rows (Reference.run Aggregate.Sum ws ~horizon events))

let suite =
  [
    Alcotest.test_case "reorder restores order" `Quick
      test_reorder_restores_order;
    Alcotest.test_case "reorder bounded lateness" `Quick
      test_reorder_bounded_lateness;
    Alcotest.test_case "reorder drops too-late" `Quick
      test_reorder_drops_too_late;
    prop_reorder_equivalent;
    Alcotest.test_case "adaptive switches and stays correct" `Quick
      test_adaptive_switches_and_stays_correct;
    Alcotest.test_case "adaptive rate drop" `Quick test_adaptive_rate_drop;
    Alcotest.test_case "adaptive steady no switch" `Quick
      test_adaptive_steady_no_switch;
    Alcotest.test_case "adaptive rejects holistic" `Quick
      test_adaptive_rejects_holistic;
    prop_adaptive_always_oracle;
  ]
