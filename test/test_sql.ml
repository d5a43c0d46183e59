open Helpers
module Lexer = Fw_sql.Lexer
module Token = Fw_sql.Token
module Parser = Fw_sql.Parser
module Ast = Fw_sql.Ast
module Printer = Fw_sql.Printer
module Analyze = Fw_sql.Analyze
module Compile = Fw_sql.Compile
module Duration = Fw_util.Duration

let fig1a =
  {|SELECT DeviceID, System.Window().Id AS WindowId, MIN(Temperature) AS MinTemp
FROM Input TIMESTAMP BY EntryTime
GROUP BY DeviceID, WINDOWS(
    WINDOW('10 min', TUMBLINGWINDOW(minute, 10)),
    WINDOW('20 min', TUMBLINGWINDOW(minute, 20)),
    WINDOW('30 min', TUMBLINGWINDOW(minute, 30)),
    WINDOW('40 min', TUMBLINGWINDOW(minute, 40)))|}

(* --- Lexer --- *)

let tokens_of s =
  List.map (fun { Token.token; _ } -> token) (Lexer.tokenize s)

let test_lexer_basic () =
  Alcotest.(check int) "token count" 7 (List.length (tokens_of "SELECT a , b ( )"));
  check_bool "ident" true (tokens_of "foo" = [ Token.Ident "foo"; Token.Eof ]);
  check_bool "int" true (tokens_of "42" = [ Token.Int 42; Token.Eof ]);
  check_bool "string" true
    (tokens_of "'10 min'" = [ Token.String "10 min"; Token.Eof ]);
  check_bool "escaped quote" true
    (tokens_of "'it''s'" = [ Token.String "it's"; Token.Eof ]);
  check_bool "negative int" true
    (tokens_of "-42" = [ Token.Int (-42); Token.Eof ]);
  check_bool "negative float" true
    (tokens_of "-0.5" = [ Token.Float (-0.5); Token.Eof ]);
  check_bool "comment still wins over sign" true
    (tokens_of "-- 5\n7" = [ Token.Int 7; Token.Eof ]);
  check_bool "punct" true
    (tokens_of "(.,*)"
    = [ Token.Lparen; Token.Dot; Token.Comma; Token.Star; Token.Rparen; Token.Eof ])

let test_lexer_comments () =
  check_bool "line comment" true
    (tokens_of "a -- comment here\nb" = [ Token.Ident "a"; Token.Ident "b"; Token.Eof ]);
  check_bool "block comment" true
    (tokens_of "a /* x\ny */ b" = [ Token.Ident "a"; Token.Ident "b"; Token.Eof ])

let test_lexer_errors () =
  (match Lexer.tokenize "a ; b" with
  | exception Lexer.Error { pos; _ } ->
      check_int "column of ;" 3 pos.Token.col
  | _ -> Alcotest.fail "expected lexical error");
  (match Lexer.tokenize "'unterminated" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated string");
  (match Lexer.tokenize "/* unterminated" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "unterminated comment");
  match Lexer.tokenize "12abc" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "digit-led identifier"

let test_lexer_positions () =
  match Lexer.tokenize "ab\n  cd" with
  | [ a; c; _eof ] ->
      check_int "a line" 1 a.Token.pos.Token.line;
      check_int "c line" 2 c.Token.pos.Token.line;
      check_int "c col" 3 c.Token.pos.Token.col
  | _ -> Alcotest.fail "expected three tokens"

(* --- Parser --- *)

let test_parse_fig1a () =
  let q = Parser.parse fig1a in
  check_string "from" "Input" q.Ast.from;
  check_bool "timestamp by" true (q.Ast.timestamp_by = Some "EntryTime");
  Alcotest.(check (list string)) "keys" [ "DeviceID" ] q.Ast.group_keys;
  check_int "windows" 4 (List.length q.Ast.windows);
  check_bool "labels" true
    ((List.hd q.Ast.windows).Ast.label = Some "10 min");
  let windows = List.map (fun s -> Ast.window_of_def s.Ast.def) q.Ast.windows in
  Alcotest.(check (list window_testable)) "normalized to ticks"
    (List.map tumbling [ 600; 1200; 1800; 2400 ])
    windows;
  match Ast.aggregates q with
  | [ (f, col) ] ->
      check_bool "MIN" true (f = Fw_agg.Aggregate.Min);
      check_string "column" "Temperature" col
  | _ -> Alcotest.fail "expected one aggregate"

let test_parse_hopping () =
  let q =
    Parser.parse
      "SELECT AVG(x) FROM s GROUP BY HOPPINGWINDOW(second, 10, 5)"
  in
  match q.Ast.windows with
  | [ { Ast.def = Ast.Hopping { size = 10; hop = 5; _ }; label = None } ] -> ()
  | _ -> Alcotest.fail "expected one hopping window"

let test_parse_single_window_no_label () =
  let q =
    Parser.parse "SELECT SUM(v) FROM s GROUP BY k, TUMBLINGWINDOW(hour, 2)"
  in
  check_int "one window" 1 (List.length q.Ast.windows);
  Alcotest.(check (list string)) "key" [ "k" ] q.Ast.group_keys

let test_parse_case_insensitive () =
  let q =
    Parser.parse "select min(x) from s group by windows(window(tumblingwindow(minute, 5)))"
  in
  check_int "window parsed" 1 (List.length q.Ast.windows)

let test_parse_min_as_column () =
  (* "min" not followed by '(' is a plain column. *)
  let q = Parser.parse "SELECT min, MAX(v) FROM s GROUP BY TUMBLINGWINDOW(second, 5)" in
  check_int "two select items" 2 (List.length q.Ast.select);
  match List.hd q.Ast.select with
  | Ast.Column [ "min" ] -> ()
  | _ -> Alcotest.fail "expected plain column"

let expect_syntax_error input =
  match Parser.parse_result input with
  | Error msg ->
      check_bool "mentions position" true (Astring_contains.contains msg "line")
  | Ok _ -> Alcotest.failf "expected syntax error for %s" input

let test_parse_errors () =
  expect_syntax_error "SELECT";
  expect_syntax_error "SELECT a FROM";
  expect_syntax_error "SELECT MIN(x FROM s";
  expect_syntax_error "SELECT MIN(x) FROM s GROUP BY TUMBLINGWINDOW(parsec, 5)";
  expect_syntax_error "SELECT MIN(x) FROM s GROUP BY TUMBLINGWINDOW(minute)";
  expect_syntax_error "SELECT MIN(x) FROM s trailing garbage";
  (* an integer literal beyond a native int *)
  expect_syntax_error
    "SELECT MIN(x) FROM s GROUP BY HOPPINGWINDOW(minute, \
     99999999999999999999, 10)";
  (* a duration whose tick count overflows *)
  expect_syntax_error
    "SELECT MIN(x) FROM s GROUP BY HOPPINGWINDOW(hour, 4611686018427387, 10)";
  expect_syntax_error "SELECT MIN(x) FROM s GROUP BY TUMBLINGWINDOW(minute, 0)";
  expect_syntax_error
    "SELECT MIN(x) FROM s GROUP BY HOPPINGWINDOW(minute, 10, 20)"

let test_window_of_def_validation () =
  (match Ast.window_of_def (Ast.Hopping { unit_ = Duration.Minute; size = 5; hop = 10 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hop > size rejected");
  match Ast.window_of_def (Ast.Tumbling { unit_ = Duration.Minute; size = 0 }) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size 0 rejected"

let test_def_of_window () =
  (match Ast.def_of_window (tumbling 600) with
  | Ast.Tumbling { unit_ = Duration.Minute; size = 10 } -> ()
  | _ -> Alcotest.fail "600 ticks = 10 min");
  match Ast.def_of_window (w ~r:7200 ~s:3600) with
  | Ast.Hopping { unit_ = Duration.Hour; size = 2; hop = 1 } -> ()
  | _ -> Alcotest.fail "2h/1h hopping"

(* --- Printer round trip --- *)

let test_roundtrip_fig1a () =
  let q = Parser.parse fig1a in
  let printed = Printer.query q in
  let q2 = Parser.parse printed in
  check_bool "round trip" true (Ast.equal q q2)

let gen_ast =
  QCheck2.Gen.(
    let gen_windows =
      list_size (int_range 1 4)
        (let* unit_ =
           oneofl [ Duration.Second; Duration.Minute; Duration.Hour ]
         in
         let* size = int_range 1 30 in
         let* label = opt (map (Printf.sprintf "w%d") (int_range 0 99)) in
         let* def =
           frequency
             [
               (3, return (Ast.Tumbling { unit_; size }));
               ( 3,
                 let* hop = int_range 1 size in
                 return (Ast.Hopping { unit_; size; hop }) );
               ( 2,
                 let* hop = int_range 1 size in
                 return (Ast.Count_rows { size; hop }) );
               ( 1,
                 let* gap = int_range 1 30 in
                 return (Ast.Session { unit_; gap }) );
             ]
         in
         return { Ast.label; def })
    in
    (* operands that survive print-then-parse: plain identifiers,
       numbers [string_of_float] regenerates exactly, quote-free
       strings *)
    let gen_operand =
      frequency
        [
          (3, map (fun i -> Ast.Col (Printf.sprintf "c%d" i)) (int_range 0 9));
          ( 3,
            map
              (fun i -> Ast.Number (float_of_int i /. 2.0))
              (int_range (-20) 20) );
          (1, map (fun i -> Ast.Str (Printf.sprintf "s%d" i)) (int_range 0 9));
        ]
    in
    let gen_compare =
      let* left = gen_operand in
      let* op = oneofl [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ] in
      let* right = gen_operand in
      return (Ast.Compare { left; op; right })
    in
    let rec gen_predicate depth =
      if depth = 0 then gen_compare
      else
        frequency
          [
            (3, gen_compare);
            ( 1,
              let* a = gen_predicate (depth - 1) in
              let* b = gen_predicate (depth - 1) in
              return (Ast.And (a, b)) );
            ( 1,
              let* a = gen_predicate (depth - 1) in
              let* b = gen_predicate (depth - 1) in
              return (Ast.Or (a, b)) );
            ( 1,
              let* a = gen_predicate (depth - 1) in
              return (Ast.Not a) );
          ]
    in
    let* f = oneofl Fw_agg.Aggregate.all in
    let* windows = gen_windows in
    let* key = map (Printf.sprintf "key%d") (int_range 0 9) in
    let* where = opt (gen_predicate 2) in
    return
      {
        Ast.select =
          [ Ast.Column [ key ]; Ast.Agg { func = f; column = "v"; alias = Some "agg" } ];
        from = "input";
        timestamp_by = Some "ts";
        where;
        group_keys = [ key ];
        windows;
      })

let prop_print_parse_roundtrip =
  qtest ~count:300 "printer/parser round trip"
    gen_ast
    (fun q -> Printer.query q)
    (fun q ->
      match Parser.parse_result (Printer.query q) with
      | Ok q2 -> Ast.equal q q2
      | Error _ -> false)

(* --- Analyze --- *)

let test_analyze_ok () =
  match Analyze.check (Parser.parse fig1a) with
  | Ok a ->
      check_bool "agg" true (a.Analyze.agg = Fw_agg.Aggregate.Min);
      check_string "column" "Temperature" a.Analyze.column;
      check_int "4 windows" 4 (List.length a.Analyze.windows);
      check_bool "no warnings" true (a.Analyze.warnings = [])
  | Error _ -> Alcotest.fail "expected success"

let analyze_str s = Analyze.check (Parser.parse s)

let test_analyze_errors () =
  (match analyze_str "SELECT a FROM s GROUP BY TUMBLINGWINDOW(minute, 5)" with
  | Error Analyze.No_aggregate -> ()
  | _ -> Alcotest.fail "no aggregate");
  (match
     analyze_str "SELECT MIN(a), MAX(b) FROM s GROUP BY TUMBLINGWINDOW(minute, 5)"
   with
  | Error (Analyze.Multiple_aggregates _) -> ()
  | _ -> Alcotest.fail "multiple aggregates");
  (match analyze_str "SELECT MIN(a) FROM s GROUP BY k" with
  | Error Analyze.No_windows -> ()
  | _ -> Alcotest.fail "no windows");
  match
    analyze_str "SELECT MIN(a) FROM s GROUP BY HOPPINGWINDOW(second, 10, 3)"
  with
  | Error (Analyze.Unaligned_window _) -> ()
  | _ -> Alcotest.fail "unaligned window"

let test_analyze_warnings () =
  (match
     analyze_str
       "SELECT MIN(a) FROM s GROUP BY WINDOWS(WINDOW(TUMBLINGWINDOW(minute, 5)), WINDOW(TUMBLINGWINDOW(minute, 5)))"
   with
  | Ok a ->
      check_int "deduplicated" 1 (List.length a.Analyze.windows);
      check_int "one warning" 1 (List.length a.Analyze.warnings)
  | Error _ -> Alcotest.fail "duplicates are a warning");
  match
    analyze_str "SELECT MEDIAN(a) FROM s GROUP BY TUMBLINGWINDOW(minute, 5)"
  with
  | Ok a -> check_int "holistic warning" 1 (List.length a.Analyze.warnings)
  | Error _ -> Alcotest.fail "holistic is a warning"

(* --- Compile --- *)

let test_compile_fig1a () =
  match Compile.compile fig1a with
  | Ok c ->
      (match c.Compile.outcome.Fw_plan.Rewrite.optimization with
      | Some r ->
          check_int "optimized cost 7230 (ticks)" 7230 r.Fw_wcg.Algorithm1.total
      | None -> Alcotest.fail "expected optimization");
      let explain = Compile.explain c in
      check_bool "explain mentions reduction" true
        (Astring_contains.contains explain "reduction")
  | Error e -> Alcotest.failf "compile failed: %s" e

let test_compile_error_message () =
  (match Compile.compile "SELECT FROM" with
  | Error msg -> check_bool "syntax error" true (Astring_contains.contains msg "syntax error")
  | Ok _ -> Alcotest.fail "expected failure");
  (* each window fits, but their common period does not *)
  match
    Compile.compile
      "SELECT MIN(x) FROM s GROUP BY WINDOWS(WINDOW(TUMBLINGWINDOW(second, \
       4611686018427387)), WINDOW(TUMBLINGWINDOW(second, 4611686018427389)))"
  with
  | Error msg ->
      check_bool "overflow error" true (Astring_contains.contains msg "overflow")
  | Ok _ -> Alcotest.fail "expected an overflow error"

(* --- Normalize (the plan-cache key) --- *)

let test_normalize_equivalence () =
  let base = "SELECT SUM(v) FROM input GROUP BY k, TUMBLINGWINDOW(minute, 5)" in
  (* whitespace, keyword case and comments are not part of the key *)
  List.iter
    (fun variant ->
      check_bool (Printf.sprintf "%S ≡ base" variant) true
        (Fw_sql.Normalize.equivalent base variant))
    [
      "select sum(v) from input group by k, tumblingwindow(minute, 5)";
      "SELECT  SUM(v)\n\tFROM input\nGROUP BY k, TUMBLINGWINDOW(minute, 5)";
      "SELECT SUM(v) -- total\nFROM input GROUP BY k, \
       TUMBLINGWINDOW(minute, 5) /* five */";
    ];
  (* semantics are: literals, window parameters, aggregate, predicate *)
  List.iter
    (fun other ->
      check_bool (Printf.sprintf "%S ≢ base" other) false
        (Fw_sql.Normalize.equivalent base other))
    [
      "SELECT SUM(v) FROM input GROUP BY k, TUMBLINGWINDOW(minute, 6)";
      "SELECT SUM(v) FROM input GROUP BY k, TUMBLINGWINDOW(second, 5)";
      "SELECT MIN(v) FROM input GROUP BY k, TUMBLINGWINDOW(minute, 5)";
      "SELECT SUM(v) FROM input WHERE v > 1 GROUP BY k, \
       TUMBLINGWINDOW(minute, 5)";
      "SELECT SUM(w) FROM input GROUP BY k, TUMBLINGWINDOW(minute, 5)";
    ];
  (* the canonical text is idempotent: normalizing it is a no-op *)
  match Fw_sql.Normalize.canonical base with
  | Error e -> Alcotest.failf "canonical failed: %s" e
  | Ok c -> (
      match Fw_sql.Normalize.canonical c with
      | Ok c2 -> check_string "idempotent" c c2
      | Error e -> Alcotest.failf "re-canonical failed: %s" e)

let test_normalize_parse_error () =
  (match Fw_sql.Normalize.canonical "SELECT FROM" with
  | Error msg ->
      check_bool "carries the parse error" true
        (Astring_contains.contains msg "syntax error")
  | Ok _ -> Alcotest.fail "expected parse error");
  check_bool "garbage is equivalent to nothing" false
    (Fw_sql.Normalize.equivalent "SELECT FROM" "SELECT FROM")

let suite =
  [
    Alcotest.test_case "lexer basic" `Quick test_lexer_basic;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "parse figure 1(a)" `Quick test_parse_fig1a;
    Alcotest.test_case "parse hopping" `Quick test_parse_hopping;
    Alcotest.test_case "parse single window" `Quick
      test_parse_single_window_no_label;
    Alcotest.test_case "parse case insensitive" `Quick
      test_parse_case_insensitive;
    Alcotest.test_case "min as a column" `Quick test_parse_min_as_column;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "window_of_def validation" `Quick
      test_window_of_def_validation;
    Alcotest.test_case "def_of_window" `Quick test_def_of_window;
    Alcotest.test_case "round trip fig 1(a)" `Quick test_roundtrip_fig1a;
    prop_print_parse_roundtrip;
    Alcotest.test_case "analyze ok" `Quick test_analyze_ok;
    Alcotest.test_case "analyze errors" `Quick test_analyze_errors;
    Alcotest.test_case "analyze warnings" `Quick test_analyze_warnings;
    Alcotest.test_case "compile fig 1(a)" `Quick test_compile_fig1a;
    Alcotest.test_case "compile error message" `Quick test_compile_error_message;
    Alcotest.test_case "normalize: key equivalence" `Quick
      test_normalize_equivalence;
    Alcotest.test_case "normalize: parse errors" `Quick
      test_normalize_parse_error;
  ]
