(* End-to-end integration: SQL text -> analysis -> optimization ->
   streaming execution -> oracle equality, across dialect features. *)
open Helpers
module Compile = Fw_sql.Compile
module Rewrite = Fw_plan.Rewrite
module Run = Fw_engine.Run
module Reference = Fw_engine.Reference
module Row = Fw_engine.Row
module A1 = Fw_wcg.Algorithm1

let events ~seed ~eta ~horizon =
  Fw_workload.Event_gen.steady (Fw_util.Prng.create seed)
    Fw_workload.Event_gen.default_config ~eta ~horizon

(* Compile a query, execute the rewritten plan, compare with the batch
   oracle over the analyzed window set. *)
let end_to_end ?(eta = 1) ?(horizon = 240) query =
  match Compile.compile ~eta query with
  | Error e -> Alcotest.failf "compile failed: %s" e
  | Ok compiled -> (
      let analysis = compiled.Compile.analysis in
      let evs = events ~seed:99 ~eta ~horizon in
      let plan = compiled.Compile.outcome.Rewrite.plan in
      match Run.verify_against_naive plan ~horizon evs with
      | Error e -> Alcotest.failf "oracle mismatch: %s" e
      | Ok () ->
          let oracle =
            Reference.run analysis.Fw_sql.Analyze.agg
              analysis.Fw_sql.Analyze.windows ~horizon evs
          in
          let { Run.rows; _ } = Run.execute plan ~horizon evs in
          check_bool "rows = direct oracle" true (Row.equal_sets rows oracle);
          compiled)

let test_tumbling_min () =
  let c =
    end_to_end
      "SELECT DeviceID, MIN(t) FROM s TIMESTAMP BY ts GROUP BY DeviceID, \
       WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
       WINDOW(TUMBLINGWINDOW(second, 20)), WINDOW(TUMBLINGWINDOW(second, \
       30)), WINDOW(TUMBLINGWINDOW(second, 40)))"
  in
  match c.Compile.outcome.Rewrite.optimization with
  | Some r -> check_int "example 6 cost" 150 r.A1.total
  | None -> Alcotest.fail "expected optimization"

let test_factor_window_discovery () =
  let c =
    end_to_end
      "SELECT SUM(t) FROM s GROUP BY WINDOWS(WINDOW(TUMBLINGWINDOW(second, \
       20)), WINDOW(TUMBLINGWINDOW(second, 30)), \
       WINDOW(TUMBLINGWINDOW(second, 40)))"
  in
  match c.Compile.outcome.Rewrite.optimization with
  | Some r ->
      check_int "example 7 with factor" 150 r.A1.total;
      check_int "one factor window" 1
        (List.length (Fw_wcg.Graph.factor_windows r.A1.graph))
  | None -> Alcotest.fail "expected optimization"

let test_hopping_mix () =
  ignore
    (end_to_end ~horizon:144
       "SELECT AVG(t) FROM s GROUP BY WINDOWS(\
        WINDOW(HOPPINGWINDOW(second, 12, 4)), \
        WINDOW(HOPPINGWINDOW(second, 24, 8)), \
        WINDOW(TUMBLINGWINDOW(second, 8)))")

let test_minute_units () =
  ignore
    (end_to_end ~horizon:3600
       "SELECT MAX(t) FROM s GROUP BY WINDOWS(\
        WINDOW('10m', TUMBLINGWINDOW(minute, 10)), \
        WINDOW('20m', TUMBLINGWINDOW(minute, 20)))")

let test_holistic_median () =
  ignore
    (end_to_end ~horizon:60
       "SELECT MEDIAN(t) FROM s GROUP BY TUMBLINGWINDOW(second, 10), \
        TUMBLINGWINDOW(second, 20)")

let test_single_window_query () =
  ignore
    (end_to_end "SELECT COUNT(t) FROM s GROUP BY HOPPINGWINDOW(second, 12, 6)")

let test_multi_aggregate_compile () =
  let q =
    "SELECT MIN(t), AVG(t), COUNT(t) FROM s GROUP BY \
     WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
     WINDOW(TUMBLINGWINDOW(second, 20)), WINDOW(TUMBLINGWINDOW(second, 40)))"
  in
  match Compile.compile_multi q with
  | Error e -> Alcotest.failf "compile_multi failed: %s" e
  | Ok { Compile.per_aggregate; _ } ->
      check_int "three compiled aggregates" 3 (List.length per_aggregate);
      List.iter
        (fun compiled ->
          let horizon = 120 in
          let evs = events ~seed:7 ~eta:1 ~horizon in
          match
            Run.verify_against_naive compiled.Compile.outcome.Rewrite.plan
              ~horizon evs
          with
          | Ok () -> ()
          | Error e -> Alcotest.failf "aggregate failed: %s" e)
        per_aggregate;
      check_bool "explain_multi covers all" true
        (Astring_contains.contains
           (Compile.explain_multi { Compile.multi_ast = (List.hd per_aggregate).Compile.ast; per_aggregate })
           "aggregate 3")

let test_single_agg_still_strict () =
  match Compile.compile "SELECT MIN(a), MAX(b) FROM s GROUP BY TUMBLINGWINDOW(second, 5)" with
  | Error msg ->
      check_bool "mentions several aggregates" true
        (Astring_contains.contains msg "several aggregate")
  | Ok _ -> Alcotest.fail "single-aggregate path must stay strict"

let test_dot_output () =
  let r = A1.run semantics_partitioned example6_windows in
  let dot = Fw_wcg.Dot.result r in
  check_bool "digraph" true (Astring_contains.contains dot "digraph wcg");
  check_bool "edge rendered" true
    (Astring_contains.contains dot "\"w_10_10\" -> \"w_20_20\"");
  check_bool "total in caption" true
    (Astring_contains.contains dot "total cost 150");
  let r2 = Fw_factor.Algorithm2.run semantics_partitioned example7_windows in
  let dot2 = Fw_wcg.Dot.result r2 in
  check_bool "factor dashed" true (Astring_contains.contains dot2 "style=dashed")

(* Every generator-produced window set survives the full pipeline. *)
let prop_generated_pipeline =
  qtest ~count:40 "generated sets: SQL round trip + execution = oracle"
    QCheck2.Gen.(int_range 0 9999)
    QCheck2.Print.int
    (fun seed ->
      let prng = Fw_util.Prng.create seed in
      let ws =
        Fw_workload.Set_gen.random prng Fw_workload.Set_gen.default_config
          ~n:3
      in
      (* render the set as a query, then go end to end *)
      let windows_sql =
        String.concat ", "
          (List.map
             (fun w ->
               Printf.sprintf "WINDOW(%s)"
                 (Fw_sql.Printer.window_def (Fw_sql.Ast.def_of_window w)))
             ws)
      in
      let q =
        Printf.sprintf "SELECT MAX(v) FROM s GROUP BY WINDOWS(%s)" windows_sql
      in
      match Compile.compile q with
      | Error _ -> false
      | Ok compiled ->
          let horizon = 120 in
          let evs = events ~seed ~eta:1 ~horizon in
          Fw_window.Window.Set.equal
            (Fw_window.Window.Set.of_list
               compiled.Compile.analysis.Fw_sql.Analyze.windows)
            (Fw_window.Window.Set.of_list ws)
          && Run.verify_against_naive compiled.Compile.outcome.Rewrite.plan
               ~horizon evs
             = Ok ())

let suite =
  [
    Alcotest.test_case "tumbling MIN (example 6)" `Quick test_tumbling_min;
    Alcotest.test_case "factor window discovery (example 7)" `Quick
      test_factor_window_discovery;
    Alcotest.test_case "hopping mix AVG" `Quick test_hopping_mix;
    Alcotest.test_case "minute units" `Quick test_minute_units;
    Alcotest.test_case "holistic MEDIAN" `Quick test_holistic_median;
    Alcotest.test_case "single-window query" `Quick test_single_window_query;
    Alcotest.test_case "multi-aggregate compile" `Quick
      test_multi_aggregate_compile;
    Alcotest.test_case "single-aggregate path strict" `Quick
      test_single_agg_still_strict;
    Alcotest.test_case "dot output" `Quick test_dot_output;
    prop_generated_pipeline;
  ]
