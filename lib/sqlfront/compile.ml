module Rewrite = Fw_plan.Rewrite
module Algorithm1 = Fw_wcg.Algorithm1

type compiled = {
  ast : Ast.t;
  analysis : Analyze.analysis;
  outcome : Rewrite.outcome;
}

(* The parser bounds each window parameter, but the optimizer's
   arithmetic over the whole set (common period, costs) can still
   exceed a native int; that is the query's error, not a crash. *)
let optimize ?eta ?factor_windows analysis =
  Rewrite.optimize ?eta ?factor_windows ?filter:analysis.Analyze.filter
    analysis.Analyze.agg analysis.Analyze.windows

let overflow =
  Error
    "the window set's common period or cost overflows the integer range"

let compile ?eta ?factor_windows input =
  match Parser.parse_result input with
  | Error _ as e -> e
  | Ok ast -> (
      match Analyze.check ast with
      | Error e -> Error (Format.asprintf "%a" Analyze.pp_error e)
      | Ok analysis -> (
          match optimize ?eta ?factor_windows analysis with
          | outcome -> Ok { ast; analysis; outcome }
          | exception Fw_util.Arith.Overflow -> overflow))

type multi_compiled = { multi_ast : Ast.t; per_aggregate : compiled list }

let compile_multi ?eta ?factor_windows input =
  match Parser.parse_result input with
  | Error _ as e -> e
  | Ok ast -> (
      match Analyze.check_multi ast with
      | Error e -> Error (Format.asprintf "%a" Analyze.pp_error e)
      | Ok analyses -> (
          match
            List.map
              (fun analysis ->
                { ast; analysis; outcome = optimize ?eta ?factor_windows analysis })
              analyses
          with
          | per_aggregate -> Ok { multi_ast = ast; per_aggregate }
          | exception Fw_util.Arith.Overflow -> overflow))

let explain { ast = _; analysis; outcome } =
  let buf = Buffer.create 512 in
  let add fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  add "aggregate: %a over %s@."
    (fun ppf -> Fw_agg.Aggregate.pp ppf)
    analysis.Analyze.agg analysis.Analyze.column;
  add "windows: %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Fw_window.Window.pp)
    analysis.Analyze.windows;
  List.iter (fun w -> add "warning: %s@." w) analysis.Analyze.warnings;
  (match
     List.filter
       (fun w -> not (Fw_window.Window.is_aligned w))
       analysis.Analyze.windows
   with
  | [] -> ()
  | fallback ->
      add "fallback (stream-fed, outside the WCG): %a@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Fw_window.Window.pp)
        fallback);
  (match outcome.Rewrite.optimization with
  | None -> add "no sharing possible; executing the naive plan@."
  | Some result ->
      add "%a@." Algorithm1.pp_result result;
      (match (outcome.Rewrite.naive_cost, Rewrite.improvement_percent outcome)
       with
      | Some naive, Some pct ->
          add "naive cost: %d, optimized cost: %d (%.1f%% reduction)@." naive
            result.Algorithm1.total pct
      | _ -> ()));
  add "rewritten plan:@.%s@." (Fw_plan.Trill.render outcome.Rewrite.plan);
  Buffer.contents buf

let explain_multi { multi_ast = _; per_aggregate } =
  String.concat "\n"
    (List.mapi
       (fun i compiled ->
         Printf.sprintf "--- aggregate %d ---\n%s" (i + 1) (explain compiled))
       per_aggregate)
