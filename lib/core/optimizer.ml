module Rewrite = Fw_plan.Rewrite
module Algorithm1 = Fw_wcg.Algorithm1

type t = {
  agg : Fw_agg.Aggregate.t;
  windows : Fw_window.Window.t list;
  eta : int;
  outcome : Rewrite.outcome;
}

let optimize ?(eta = 1) ?factor_windows agg windows =
  let windows = Fw_window.Window.dedup windows in
  let outcome = Rewrite.optimize ~eta ?factor_windows agg windows in
  { agg; windows; eta; outcome }

let of_query ?(eta = 1) ?factor_windows input =
  match Fw_sql.Compile.compile ~eta ?factor_windows input with
  | Error _ as e -> e
  | Ok { Fw_sql.Compile.analysis; outcome; _ } ->
      Ok
        {
          agg = analysis.Fw_sql.Analyze.agg;
          windows = analysis.Fw_sql.Analyze.windows;
          eta;
          outcome;
        }

let optimized_plan t = t.outcome.Rewrite.plan
let naive_plan t = t.outcome.Rewrite.naive_plan

let optimized_cost t =
  Option.map
    (fun r -> r.Algorithm1.total)
    t.outcome.Rewrite.optimization

let naive_cost t = t.outcome.Rewrite.naive_cost
let improvement_percent t = Rewrite.improvement_percent t.outcome
let trill t = Fw_plan.Trill.render (optimized_plan t)

let explain t =
  let buf = Buffer.create 512 in
  let add fmt = Format.kasprintf (Buffer.add_string buf) fmt in
  add "aggregate: %a (eta = %d)@." Fw_agg.Aggregate.pp t.agg t.eta;
  add "windows: %a@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Fw_window.Window.pp)
    t.windows;
  (match
     List.filter
       (fun w -> not (Fw_window.Window.is_aligned w))
       t.windows
   with
  | [] -> ()
  | fallback ->
      add "fallback (stream-fed, outside the WCG): %a@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           Fw_window.Window.pp)
        fallback);
  (match t.outcome.Rewrite.optimization with
  | None ->
      if Fw_agg.Aggregate.shareable t.agg then
        add "no coverable windows: every window runs stream-fed@."
      else
        add "aggregate is holistic: no sharing is sound, naive plan kept@."
  | Some result -> (
      add "%a@." Algorithm1.pp_result result;
      match (naive_cost t, improvement_percent t) with
      | Some naive, Some pct ->
          add "naive cost %d -> optimized cost %d (%.1f%% reduction)@." naive
            result.Algorithm1.total pct
      | _ -> ()));
  add "rewritten plan:@.%s@." (trill t);
  Buffer.contents buf

let execute ?metrics t ~horizon events =
  Fw_engine.Run.execute ?metrics (optimized_plan t) ~horizon events

let verify t ~horizon events =
  match
    Fw_engine.Run.compare_plans (naive_plan t) (optimized_plan t) ~horizon
      events
  with
  | Ok _ -> Ok ()
  | Error _ as e -> e
