(* Plan predicates and the WHERE clause end to end. *)
open Helpers
module P = Fw_plan.Predicate
module Parser = Fw_sql.Parser
module Ast = Fw_sql.Ast
module Printer = Fw_sql.Printer
module Analyze = Fw_sql.Analyze
module Compile = Fw_sql.Compile
module Run = Fw_engine.Run
module Reference = Fw_engine.Reference
module Row = Fw_engine.Row
module Event = Fw_engine.Event

let ev t k v = Event.make ~time:t ~key:k ~value:v

let value_ge x =
  P.Compare { left = P.Field P.Value; op = P.Ge; right = P.Const_num x }

let key_is k =
  P.Compare { left = P.Field P.Key; op = P.Eq; right = P.Const_str k }

let test_eval_comparisons () =
  let eval p = P.eval p ~key:"a" ~value:5.0 ~time:7 in
  check_bool "value >= 5" true (eval (value_ge 5.0));
  check_bool "value >= 5.1" false (eval (value_ge 5.1));
  check_bool "key = 'a'" true (eval (key_is "a"));
  check_bool "key = 'b'" false (eval (key_is "b"));
  check_bool "time < 8" true
    (eval (P.Compare { left = P.Field P.Time; op = P.Lt; right = P.Const_num 8.0 }));
  check_bool "string vs number: <> is true" true
    (eval (P.Compare { left = P.Field P.Key; op = P.Neq; right = P.Const_num 1.0 }));
  check_bool "string vs number: = is false" false
    (eval (P.Compare { left = P.Field P.Key; op = P.Eq; right = P.Const_num 1.0 }))

let test_eval_connectives () =
  let eval p = P.eval p ~key:"a" ~value:5.0 ~time:7 in
  check_bool "and" true (eval (P.And (value_ge 1.0, key_is "a")));
  check_bool "and short" false (eval (P.And (value_ge 9.0, key_is "a")));
  check_bool "or" true (eval (P.Or (value_ge 9.0, key_is "a")));
  check_bool "not" false (eval (P.Not (key_is "a")));
  check_bool "always_true" true (eval P.always_true)

let test_pp () =
  check_string "compare" "value >= 10" (P.to_string (value_ge 10.0));
  check_bool "nested" true
    (Astring_contains.contains
       (P.to_string (P.And (value_ge 1.0, P.Not (key_is "x"))))
       "AND (NOT key = 'x')")

(* --- parsing --- *)

let parse_where q =
  match (Parser.parse q).Ast.where with
  | Some p -> p
  | None -> Alcotest.fail "expected a WHERE clause"

let test_parse_where () =
  (match parse_where "SELECT MIN(v) FROM s WHERE v >= 10 GROUP BY TUMBLINGWINDOW(second, 5)" with
  | Ast.Compare { op = Ast.Ge; right = Ast.Number 10.0; _ } -> ()
  | _ -> Alcotest.fail "simple comparison");
  (match parse_where "SELECT MIN(v) FROM s WHERE v >= 1.5 AND k <> 'x' OR NOT v < 2 GROUP BY TUMBLINGWINDOW(second, 5)" with
  | Ast.Or (Ast.And _, Ast.Not _) -> ()
  | _ -> Alcotest.fail "precedence: OR(AND(_,_), NOT _)");
  match parse_where "SELECT MIN(v) FROM s WHERE (v >= 1 OR v < 0) AND k = 'a' GROUP BY TUMBLINGWINDOW(second, 5)" with
  | Ast.And (Ast.Or _, Ast.Compare _) -> ()
  | _ -> Alcotest.fail "parentheses group"

let test_parse_where_errors () =
  let bad q =
    match Parser.parse_result q with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "expected failure: %s" q
  in
  bad "SELECT MIN(v) FROM s WHERE v GROUP BY TUMBLINGWINDOW(second, 5)";
  bad "SELECT MIN(v) FROM s WHERE v >= GROUP BY TUMBLINGWINDOW(second, 5)";
  bad "SELECT MIN(v) FROM s WHERE (v >= 1 GROUP BY TUMBLINGWINDOW(second, 5)"

let test_where_roundtrip () =
  let q =
    Parser.parse
      "SELECT MIN(v) FROM s WHERE v >= 1.5 AND NOT k = 'dev 1' GROUP BY k, \
       TUMBLINGWINDOW(second, 5)"
  in
  let printed = Printer.query q in
  match Parser.parse_result printed with
  | Ok q2 -> check_bool "round trip" true (Ast.equal q q2)
  | Error e -> Alcotest.failf "round trip failed: %s" e

(* --- analysis --- *)

let test_resolution () =
  let q =
    Parser.parse
      "SELECT DeviceID, MIN(Temp) FROM s TIMESTAMP BY ts WHERE Temp >= 10 \
       AND deviceid = 'd1' AND TS < 100 GROUP BY DeviceID, \
       TUMBLINGWINDOW(second, 5)"
  in
  match Analyze.check q with
  | Ok a -> (
      match a.Analyze.filter with
      | Some (P.And (P.Compare { left = P.Field P.Value; _ }, P.And (
          P.Compare { left = P.Field P.Key; _ },
          P.Compare { left = P.Field P.Time; _ }))) ->
          ()
      | _ -> Alcotest.fail "columns resolved to value/key/time")
  | Error e ->
      Alcotest.failf "analysis failed: %s"
        (Format.asprintf "%a" Analyze.pp_error e)

let test_unknown_column () =
  let q =
    Parser.parse
      "SELECT MIN(Temp) FROM s WHERE Humidity > 3 GROUP BY \
       TUMBLINGWINDOW(second, 5)"
  in
  match Analyze.check q with
  | Error (Analyze.Unknown_column "Humidity") -> ()
  | _ -> Alcotest.fail "expected Unknown_column"

(* --- execution --- *)

let test_filtered_execution () =
  let q =
    "SELECT k, SUM(v) FROM s WHERE v >= 50 GROUP BY k, \
     WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
     WINDOW(TUMBLINGWINDOW(second, 20)))"
  in
  match Compile.compile q with
  | Error e -> Alcotest.failf "compile: %s" e
  | Ok compiled -> (
      let horizon = 120 in
      let events =
        List.init (2 * horizon) (fun i ->
            ev (i / 2) (if i mod 2 = 0 then "a" else "b")
              (float_of_int ((i * 37) mod 100)))
      in
      let plan = compiled.Compile.outcome.Fw_plan.Rewrite.plan in
      (* streaming result = oracle over the pre-filtered events *)
      match Run.verify_against_naive plan ~horizon events with
      | Error e -> Alcotest.failf "mismatch: %s" e
      | Ok () ->
          let filtered =
            List.filter (fun e -> e.Event.value >= 50.0) events
          in
          let oracle =
            Reference.run Fw_agg.Aggregate.Sum
              [ tumbling 10; tumbling 20 ]
              ~horizon filtered
          in
          let { Run.rows; _ } = Run.execute plan ~horizon events in
          check_bool "matches hand-filtered oracle" true
            (Row.equal_sets rows oracle))

let test_filter_reduces_work () =
  let filter = value_ge 50.0 in
  let outcome =
    Fw_plan.Rewrite.optimize ~filter Fw_agg.Aggregate.Min example6_windows
  in
  let events =
    List.init 120 (fun t -> ev t "k" (float_of_int ((t * 7) mod 100)))
  in
  let metrics = Fw_engine.Metrics.create () in
  ignore
    (Fw_engine.Stream_exec.run ~metrics outcome.Fw_plan.Rewrite.plan
       ~horizon:120 events);
  let unfiltered = Fw_engine.Metrics.create () in
  let plain = Fw_plan.Rewrite.optimize Fw_agg.Aggregate.Min example6_windows in
  ignore
    (Fw_engine.Stream_exec.run ~metrics:unfiltered plain.Fw_plan.Rewrite.plan
       ~horizon:120 events);
  check_bool "filter cuts processed items" true
    (Fw_engine.Metrics.total_processed metrics
    < Fw_engine.Metrics.total_processed unfiltered)

let suite =
  [
    Alcotest.test_case "eval comparisons" `Quick test_eval_comparisons;
    Alcotest.test_case "eval connectives" `Quick test_eval_connectives;
    Alcotest.test_case "predicate pp" `Quick test_pp;
    Alcotest.test_case "parse WHERE" `Quick test_parse_where;
    Alcotest.test_case "parse WHERE errors" `Quick test_parse_where_errors;
    Alcotest.test_case "WHERE round trip" `Quick test_where_roundtrip;
    Alcotest.test_case "column resolution" `Quick test_resolution;
    Alcotest.test_case "unknown column" `Quick test_unknown_column;
    Alcotest.test_case "filtered execution = filtered oracle" `Quick
      test_filtered_execution;
    Alcotest.test_case "filter reduces work" `Quick test_filter_reduces_work;
  ]
