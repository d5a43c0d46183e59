(* Executable window slicing vs the batch oracle and the Table-1
   counters. *)
open Helpers
module Exec = Fw_slicing.Exec
module Cost = Fw_slicing.Cost
module Reference = Fw_engine.Reference
module Row = Fw_engine.Row
module Event = Fw_engine.Event
module Aggregate = Fw_agg.Aggregate

let ev t k v = Event.make ~time:t ~key:k ~value:v

let steady_events ~horizon =
  List.init horizon (fun t -> ev t "k" (float_of_int ((t * 13) mod 29)))

let modes = [ Exec.Unshared; Exec.Shared ]
let slicings = [ Exec.Paned_slicing; Exec.Paired_slicing ]

let test_matches_oracle_example6 () =
  let events = steady_events ~horizon:120 in
  let oracle = Reference.run Aggregate.Min example6_windows ~horizon:120 events in
  List.iter
    (fun mode ->
      List.iter
        (fun slicing ->
          let report =
            Exec.run Aggregate.Min mode slicing example6_windows ~horizon:120
              events
          in
          check_bool "rows = oracle" true (Row.equal_sets report.Exec.rows oracle))
        slicings)
    modes

let test_matches_oracle_hopping () =
  let ws = [ w ~r:10 ~s:6; w ~r:12 ~s:4; w ~r:9 ~s:3 ] in
  let events = steady_events ~horizon:90 in
  let oracle = Reference.run Aggregate.Sum ws ~horizon:90 events in
  List.iter
    (fun mode ->
      List.iter
        (fun slicing ->
          let report = Exec.run Aggregate.Sum mode slicing ws ~horizon:90 events in
          check_bool "rows = oracle" true (Row.equal_sets report.Exec.rows oracle))
        slicings)
    modes

let test_holistic_supported () =
  (* Footnote 3: slices partition the stream, so even MEDIAN works. *)
  let ws = [ w ~r:10 ~s:5; tumbling 15 ] in
  let events = steady_events ~horizon:60 in
  let oracle = Reference.run Aggregate.Median ws ~horizon:60 events in
  let report =
    Exec.run Aggregate.Median Exec.Shared Exec.Paired_slicing ws ~horizon:60
      events
  in
  check_bool "median rows = oracle" true (Row.equal_sets report.Exec.rows oracle)

let test_partial_counters () =
  let ws = example6_windows in
  let horizon = 120 in
  let events = steady_events ~horizon in
  let unshared =
    Exec.run Aggregate.Min Exec.Unshared Exec.Paired_slicing ws ~horizon events
  in
  check_int "unshared partial = n*T" (4 * 120) unshared.Exec.partial_items;
  let shared =
    Exec.run Aggregate.Min Exec.Shared Exec.Paired_slicing ws ~horizon events
  in
  check_int "shared partial = T" 120 shared.Exec.partial_items

let test_final_counter_vs_table1 () =
  (* Single key, every slice non-empty: the measured final work per
     period cannot exceed the Table-1 bound. *)
  let ws = [ w ~r:10 ~s:6; w ~r:12 ~s:4 ] in
  let s_period = Cost.period ws in
  let periods = 5 in
  let horizon = s_period * periods in
  let events = steady_events ~horizon in
  let report =
    Exec.run Aggregate.Min Exec.Unshared Exec.Paired_slicing ws ~horizon events
  in
  let bound = (Cost.cost ~eta:1 Cost.Unshared_paired ws).Cost.final in
  check_bool "measured final <= bound * periods (plus edge instances)" true
    (report.Exec.final_items <= bound * (periods + 2))

let prop_slicing_equals_oracle =
  qtest ~count:80 "slicing execution = oracle (random sets/aggregates)"
    QCheck2.Gen.(
      let* ws = gen_window_set ~max_size:4 () in
      let* agg = oneofl Aggregate.all in
      let* seed = int_range 0 9999 in
      let* mode = oneofl modes in
      let* slicing = oneofl slicings in
      return (ws, agg, seed, mode, slicing))
    (fun (ws, agg, seed, _, _) ->
      Printf.sprintf "%s %s seed=%d" (print_window_list ws)
        (Aggregate.to_string agg) seed)
    (fun (ws, agg, seed, mode, slicing) ->
      let horizon = 150 in
      let prng = Fw_util.Prng.create seed in
      let events =
        Fw_workload.Event_gen.varied prng Fw_workload.Event_gen.default_config
          ~eta_max:2 ~horizon
      in
      match Exec.run agg mode slicing ws ~horizon events with
      | exception Fw_util.Arith.Overflow -> true
      | report ->
          Row.equal_sets report.Exec.rows (Reference.run agg ws ~horizon events))

let suite =
  [
    Alcotest.test_case "matches oracle (example 6)" `Quick
      test_matches_oracle_example6;
    Alcotest.test_case "matches oracle (hopping)" `Quick
      test_matches_oracle_hopping;
    Alcotest.test_case "holistic supported" `Quick test_holistic_supported;
    Alcotest.test_case "partial counters" `Quick test_partial_counters;
    Alcotest.test_case "final counter vs table 1" `Quick
      test_final_counter_vs_table1;
    prop_slicing_equals_oracle;
  ]
