open Fw_window
module Plan = Fw_plan.Plan
module Validate = Fw_plan.Validate

type report = { rows : Row.t list; metrics : Metrics.t }

type saving = {
  window : Window.t;
  baseline_items : int;
  rewritten_items : int;
}

type comparison = {
  baseline : report;
  rewritten : report;
  savings : saving list;
}

let saved s = s.baseline_items - s.rewritten_items

let execute ?metrics ?mode ?trace ?spill plan ~horizon events =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  (match trace with Some tr -> Metrics.set_trace metrics tr | None -> ());
  let rows = Stream_exec.run ~metrics ?mode ?spill plan ~horizon events in
  { rows; metrics }

let describe_diff diff =
  let pp_side ppf = function
    | Some row -> Row.pp ppf row
    | None -> Format.pp_print_string ppf "(missing)"
  in
  Format.asprintf "%d mismatching rows; first: %a"
    (List.length diff)
    (fun ppf -> function
      | [] -> Format.pp_print_string ppf "none"
      | (a, b) :: _ -> Format.fprintf ppf "%a vs %a" pp_side a pp_side b)
    diff

(* The events the plan's source filter keeps (all of them when the plan
   has none): the reference evaluator knows windows, not predicates. *)
let apply_filter plan events =
  match Plan.source_filter plan with
  | None -> events
  | Some pred ->
      List.filter
        (fun e ->
          Fw_plan.Predicate.eval pred ~key:e.Event.key ~value:e.Event.value
            ~time:e.Event.time)
        events

let verify_against_naive plan ~horizon events =
  let { rows; _ } = execute plan ~horizon events in
  let expected =
    Reference.run (Plan.agg plan) (Plan.exposed_windows plan) ~horizon
      (apply_filter plan events)
  in
  if Row.equal_sets rows expected then Ok ()
  else Error (describe_diff (Row.diff rows expected))

(* Per-operator delta over the union of both runs' windows: where the
   rewriting saved work node by node, not just in total.  Factor
   windows appear only on the rewritten side (baseline 0, a negative
   saving — the investment the downstream savings pay for). *)
let per_window_savings a b =
  let keys =
    Window.Set.union
      (Window.Set.of_list (List.map fst (Metrics.per_window a.metrics)))
      (Window.Set.of_list (List.map fst (Metrics.per_window b.metrics)))
  in
  List.map
    (fun window ->
      {
        window;
        baseline_items = Metrics.processed a.metrics window;
        rewritten_items = Metrics.processed b.metrics window;
      })
    (Window.Set.elements keys)

let pp_savings ppf savings =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut (fun ppf s ->
         Format.fprintf ppf "%a: %d -> %d (%+d)" Window.pp s.window
           s.baseline_items s.rewritten_items (- (saved s))))
    savings

let compare_plans a b ~horizon events =
  match Validate.check_equivalent a b with
  | Error _ as e -> e
  | Ok () ->
      let ra = execute a ~horizon events in
      let rb = execute b ~horizon events in
      if Row.equal_sets ra.rows rb.rows then
        Ok
          {
            baseline = ra;
            rewritten = rb;
            savings = per_window_savings ra rb;
          }
      else Error (describe_diff (Row.diff ra.rows rb.rows))
