(* [stream-fw]: the paper's own traffic on the engine hot path.  One
   GROUP BY key SUM over six correlated windows; the optimizer inserts a
   factor window W<10,10> that feeds all six, and the incremental engine
   runs it on 1024-event batches of Zipf-keyed input. *)

open Common
module Plan = Fw_plan.Plan

let sql =
  "SELECT SUM(value) FROM input GROUP BY key, WINDOWS(WINDOW(HOPPINGWINDOW(second, \
   60, 10)), WINDOW(HOPPINGWINDOW(second, 120, 20)), \
   WINDOW(HOPPINGWINDOW(second, 180, 30)), WINDOW(HOPPINGWINDOW(second, 240, \
   40)), WINDOW(TUMBLINGWINDOW(second, 300)), WINDOW(TUMBLINGWINDOW(second, \
   600)))"

let config =
  {
    Engine_wl.sql;
    factor_windows = true;
    mode = Fw_engine.Stream_exec.Incremental;
    gen = { Gen.seed = 0; n_keys = 64; keys = Gen.Zipf 1.0; eta = 256 };
    batch = 1024;
    warm_ticks = 600;
    timed_ticks = 2400;
    budget = None;
    sorted = true;
  }

let smoke =
  {
    config with
    Engine_wl.gen = { config.Engine_wl.gen with Gen.n_keys = 8; eta = 8 };
    batch = 64;
    timed_ticks = 600;
  }

(* The plan still has a factor window, and the windows it feeds report
   the window-fed fallback — otherwise this is no longer the workload
   the paper's rewrite is about. *)
let self_checks ctx (s : Engine_wl.seg) =
  let plan = s.compiled.Fw_sql.Compile.outcome.Fw_plan.Rewrite.plan in
  self_check ctx (factor_window_count plan >= 1) "stream-fw plan has no factor window";
  let window_fed =
    Array.to_list (Plan.nodes plan)
    |> List.filter_map (function
         | Plan.Win_agg { window; _ } -> (
             match Plan.window_input plan window with
             | `Window _ -> Some window
             | `Stream -> None)
         | _ -> None)
  in
  let fallbacks = Fw_engine.Metrics.fallbacks s.metrics in
  self_check ctx (window_fed <> []) "stream-fw plan has no window-fed node";
  List.iter
    (fun w ->
      let name = Fw_window.Window.to_string w in
      self_check ctx
        (List.exists
           (fun (_, win, reason, _) -> win = name && reason = "window-fed-input")
           fallbacks)
        "stream-fw window %s is window-fed but reports no window-fed-input fallback"
        name)
    window_fed

let run ?(cfg = config) ctx =
  let segs =
    segments ctx ~min:(if ctx.trace then 4 else 3) (fun ~index:_ ~traced:_ ->
        Engine_wl.run_segment ctx cfg)
  in
  let first = snd (List.hd segs) in
  self_checks ctx first;
  (* independent path: the unrewritten plan on the same input.  Values
     are multiples of 0.25 well below 2^53, so every sum is exact in any
     association and the rewrite must reproduce the naive rows bit for
     bit (compared as sorted sets: the plans emit in different orders). *)
  let naive = first.compiled.Fw_sql.Compile.outcome.Fw_plan.Rewrite.naive_plan in
  let expected = Engine_wl.reference_digest ctx cfg ~mode:cfg.Engine_wl.mode naive in
  check ctx (first.digest = expected)
    "stream-fw: rewritten rows differ from the unrewritten plan's (%d vs %d rows)"
    (snd first.digest) (snd expected);
  Engine_wl.check_repeats ctx "stream-fw" segs;
  let normalize_us =
    Stats.median_list
      (List.init 20 (fun _ ->
           let _, ns = Mono.time (fun () -> Fw_sql.Normalize.canonical sql) in
           float_of_int ns /. 1e3))
  in
  Engine_wl.report segs
    ~layer:
      ((("sqlfront.normalize_us", normalize_us)
        :: Engine_wl.engine_layer_figures segs)
      @ core_layers ~eta:cfg.Engine_wl.gen.Gen.eta first.compiled)
