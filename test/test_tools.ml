(* CSV interchange and the structured optimizer trace. *)
open Helpers
module Csv_io = Fw_engine.Csv_io
module Event = Fw_engine.Event
module Explain = Factor_windows.Explain

let test_csv_roundtrip () =
  let events =
    [
      Event.make ~time:0 ~key:"a" ~value:5.0;
      Event.make ~time:3 ~key:"b" ~value:2.5;
      Event.make ~time:12 ~key:"a" ~value:7.25;
    ]
  in
  match Csv_io.parse_events (Csv_io.events_to_csv events) with
  | Ok parsed -> check_bool "round trip" true (parsed = events)
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_csv_header_optional () =
  (match Csv_io.parse_events "0,a,1\n1,b,2\n" with
  | Ok events -> check_int "two events" 2 (List.length events)
  | Error e -> Alcotest.failf "no-header parse failed: %s" e);
  match Csv_io.parse_events "TIME,Key,Value\n0,a,1\n" with
  | Ok events -> check_int "header skipped" 1 (List.length events)
  | Error e -> Alcotest.failf "header parse failed: %s" e

let test_csv_errors () =
  let expect_error doc needle =
    match Csv_io.parse_events doc with
    | Error msg ->
        check_bool
          (Printf.sprintf "mentions %s" needle)
          true
          (Astring_contains.contains msg needle)
    | Ok _ -> Alcotest.failf "expected failure for %S" doc
  in
  expect_error "0,a,1\nnonsense\n" "line 2";
  expect_error "x,a,1\n" "bad time";
  expect_error "1,a,zzz\n" "bad value";
  expect_error "-4,a,1\n" "negative time"

let test_csv_blank_lines_and_spaces () =
  match Csv_io.parse_events "\n 0 , dev , 1.5 \n\n2,dev,2\n" with
  | Ok [ a; b ] ->
      check_int "time trimmed" 0 a.Event.time;
      check_string "key trimmed" "dev" a.Event.key;
      check_int "second" 2 b.Event.time
  | Ok _ -> Alcotest.fail "expected two events"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_csv_rows () =
  let rows =
    [
      {
        Fw_engine.Row.window = tumbling 10;
        interval = Fw_window.Interval.make ~lo:0 ~hi:10;
        key = "a";
        value = 4.5;
      };
    ]
  in
  let csv = Csv_io.rows_to_csv rows in
  check_bool "header" true (Astring_contains.contains csv "range,slide");
  check_bool "row" true (Astring_contains.contains csv "10,10,0,10,a,4.5")

(* A session row has no range or slide: it renders its gap as the range
   and 0 as the slide. *)
let test_csv_session_rows () =
  let row =
    {
      Fw_engine.Row.window = Fw_window.Window.session ~gap:5;
      interval = Fw_window.Interval.make ~lo:3 ~hi:17;
      key = "k";
      value = 2.5;
    }
  in
  check_string "session row"
    "range,slide,start,end,key,value\n5,0,3,17,k,2.5\n"
    (Csv_io.rows_to_csv [ row ])

(* The row renderer is held to the Printf line it replaced, kept here
   as the reference. *)
let printf_rows_to_csv rows =
  String.concat ""
    ("range,slide,start,end,key,value\n"
    :: List.map
         (fun r ->
           Printf.sprintf "%d,%d,%d,%d,%s,%g\n"
             (Fw_window.Window.range r.Fw_engine.Row.window)
             (Fw_window.Window.slide r.Fw_engine.Row.window)
             (Fw_window.Interval.lo r.Fw_engine.Row.interval)
             (Fw_window.Interval.hi r.Fw_engine.Row.interval)
             r.Fw_engine.Row.key r.Fw_engine.Row.value)
         rows)

let gen_row_value =
  QCheck2.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits int64);
        ( 2,
          oneofl
            [ nan; -.nan; infinity; neg_infinity; 0.0; -0.0; 4.9e-324;
              -2.2250738585072009e-308; 1e-5; 0.1; 123456.5; 1e21; -1e21 ] );
        (1, float);
      ])

let gen_row =
  QCheck2.Gen.(
    let* window = oneof [ gen_window; gen_count_window ] in
    let* lo = oneof [ int_range 0 1000; int_range (-1_000_000) max_int ] in
    let* len = int_range 1 1_000_000 in
    let hi = if lo > max_int - len then max_int else lo + len in
    let lo = if lo = hi then lo - 1 else lo in
    let* key = string_size (int_range 0 40) in
    let* value = gen_row_value in
    return
      {
        Fw_engine.Row.window;
        interval = Fw_window.Interval.make ~lo ~hi;
        key;
        value;
      })

let prop_rows_csv_matches_printf =
  qtest ~count:500 "rows_to_csv = Printf reference"
    QCheck2.Gen.(list_size (int_range 0 8) gen_row)
    (fun rows -> String.escaped (printf_rows_to_csv rows))
    (fun rows -> Csv_io.rows_to_csv rows = printf_rows_to_csv rows)

(* --- Explain traces --- *)

let trace7 = Explain.trace semantics_partitioned example7_windows

let test_trace_shape () =
  let steps = trace7.Explain.steps in
  (match List.hd steps with
  | Explain.Built_wcg { nodes = 3; edges = 1; period = 120; naive_cost = 360; _ } ->
      ()
  | _ -> Alcotest.fail "first step describes the WCG");
  (match List.rev steps with
  | Explain.Compared_algorithms { algorithm1 = 246; algorithm2 = 150; chosen = `Algorithm2 }
    :: _ ->
      ()
  | _ -> Alcotest.fail "last step compares the algorithms");
  check_bool "factor step present" true
    (List.exists
       (function
         | Explain.Added_factor { factor; _ } ->
             Fw_window.Window.equal factor (tumbling 10)
         | _ -> false)
       steps);
  check_int "final cost" 150 trace7.Explain.result.Fw_wcg.Algorithm1.total

let test_trace_choices_minimal () =
  List.iter
    (function
      | Explain.Chose_parent { alternatives; chosen_cost; _ } -> (
          match alternatives with
          | (_, best) :: _ ->
              check_int "chosen cost is the cheapest option" best chosen_cost
          | [] -> Alcotest.fail "no alternatives listed")
      | _ -> ())
    trace7.Explain.steps

let test_trace_render () =
  let s = Explain.render trace7 in
  check_bool "mentions factor" true
    (Astring_contains.contains s "added factor window W<10,10>");
  check_bool "mentions comparison" true
    (Astring_contains.contains s "kept Algorithm 2")

let prop_trace_consistent =
  qtest ~count:60 "trace result = best_of result"
    (gen_window_set ~max_size:5 ()) print_window_list
    (fun ws ->
      match Explain.trace semantics_covered ws with
      | exception _ -> true
      | t ->
          let direct = Fw_factor.Algorithm2.best_of semantics_covered ws in
          t.Explain.result.Fw_wcg.Algorithm1.total
          = direct.Fw_wcg.Algorithm1.total
          && List.exists
               (function
                 | Explain.Compared_algorithms _ -> true
                 | _ -> false)
               t.Explain.steps)

(* fwfuzz --artifacts: a fabricated failure dumps a repro and a
   metrics/trace snapshot of both streaming engines. *)
let test_fuzz_artifacts_dump () =
  let sc = Fw_check.Scenario.of_seed Fw_check.Scenario.default_gen 42 in
  let problem =
    { Fw_check.Harness.source = "test"; detail = "fabricated failure" }
  in
  let failure =
    {
      Fw_check.Harness.seed = 42;
      scenario = sc;
      problems = [ problem ];
      shrunk = sc;
      shrunk_problems = [ problem ];
    }
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "fw-artifacts-%d" (Unix.getpid ()))
  in
  match Fw_check.Artifacts.dump ~dir failure with
  | Error e -> Alcotest.failf "dump failed: %s" e
  | Ok files ->
      check_int "repro + metrics" 2 (List.length files);
      List.iter
        (fun f -> check_bool (f ^ " written") true (Sys.file_exists f))
        files;
      let json =
        In_channel.with_open_text (List.nth files 1) In_channel.input_all
      in
      check_bool "records the seed" true
        (Astring_contains.contains json "\"seed\":42");
      check_bool "carries the problem" true
        (Astring_contains.contains json "fabricated failure");
      check_bool "naive engine snapshot" true
        (Astring_contains.contains json "\"naive-stream\"");
      check_bool "incremental engine snapshot" true
        (Astring_contains.contains json "\"incremental-stream\"");
      check_bool "per-node metrics present" true
        (Astring_contains.contains json "node_rows_in_total");
      check_bool "trace attached" true
        (Astring_contains.contains json "\"spans\"");
      List.iter Sys.remove files;
      Sys.rmdir dir

let suite =
  [
    Alcotest.test_case "csv round trip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv header optional" `Quick test_csv_header_optional;
    Alcotest.test_case "csv errors" `Quick test_csv_errors;
    Alcotest.test_case "csv blank lines / spaces" `Quick
      test_csv_blank_lines_and_spaces;
    Alcotest.test_case "csv rows" `Quick test_csv_rows;
    Alcotest.test_case "trace shape" `Quick test_trace_shape;
    Alcotest.test_case "trace choices minimal" `Quick
      test_trace_choices_minimal;
    Alcotest.test_case "trace render" `Quick test_trace_render;
    prop_trace_consistent;
    Alcotest.test_case "fuzz artifacts dump" `Quick test_fuzz_artifacts_dump;
    Alcotest.test_case "csv session rows" `Quick test_csv_session_rows;
    prop_rows_csv_matches_printf;
  ]
