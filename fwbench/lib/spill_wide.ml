(* [spill-wide]: --memory-budget traffic.  One MAX over H600/60 without
   factor windows, so every key's state is a pane ring plus a two-stacks
   SWAG queue — the only workload where SWAG runs, since every optimized
   plan above routes its hopping windows through a factor window.  2048
   uniform keys live under a 32 KiB pool (about 3% of their state), so
   clock eviction, fault-in and compaction do most of the work. *)

open Common

let config =
  {
    Engine_wl.sql =
      "SELECT MAX(value) FROM input GROUP BY key, \
       WINDOWS(WINDOW(HOPPINGWINDOW(second, 600, 60)))";
    factor_windows = false;
    mode = Fw_engine.Stream_exec.Incremental;
    gen = { Gen.seed = 0; n_keys = 2048; keys = Gen.Uniform; eta = 64 };
    batch = 128;
    warm_ticks = 600;
    timed_ticks = 600;
    budget = Some (32 * 1024);
    sorted = false;
  }

let smoke =
  {
    config with
    Engine_wl.gen = { config.Engine_wl.gen with Gen.n_keys = 2000; eta = 8 };
    batch = 64;
    timed_ticks = 600;
    budget = Some (16 * 1024);
  }

let pool_of (s : Engine_wl.seg) =
  match s.pool with
  | Some p -> p
  | None -> invalid_arg "spill-wide segment ran without a pool"

let run ?(cfg = config) ctx =
  let segs =
    segments ctx ~min:(if ctx.trace then 4 else 3) (fun ~index:_ ~traced:_ ->
        Engine_wl.run_segment ctx cfg)
  in
  let first = snd (List.hd segs) in
  (* independent path: the same plan, all state resident *)
  let plan = first.compiled.Fw_sql.Compile.outcome.Fw_plan.Rewrite.plan in
  let expected = Engine_wl.reference_digest ctx cfg ~mode:cfg.Engine_wl.mode plan in
  check ctx (first.digest = expected)
    "spill-wide: budgeted rows differ from the unbudgeted run's (%d vs %d rows)"
    (snd first.digest) (snd expected);
  Engine_wl.check_repeats ctx "spill-wide" segs;
  let total f = List.fold_left (fun a (_, s) -> a + f (pool_of s)) 0 segs in
  self_check ctx
    (total (fun p -> p.Engine_wl.faults) > 0)
    "spill-wide never faulted state back in";
  self_check ctx
    (total (fun p -> p.Engine_wl.compactions) > 0)
    "spill-wide never compacted a spill file";
  let ts = traced_or_all segs in
  let med f = Stats.median_list (List.map (fun s -> f s (pool_of s)) ts) in
  let per_ev n s = per_event n s.Engine_wl.timed_events in
  Engine_wl.report segs
    ~layer:
      (Engine_wl.engine_layer_figures segs
      @ [
          ("spill.faults_per_event", med (fun s p -> per_ev p.faults s));
          ("spill.evictions_per_event", med (fun s p -> per_ev p.evictions s));
          ("spill.fault_us_p50", med (fun _ p -> p.fault_p50_ns /. 1e3));
          ("spill.compactions", med (fun _ p -> float_of_int p.compactions));
          ( "spill.peak_resident_kb",
            med (fun _ p -> float_of_int p.peak_resident /. 1024.0) );
          ("spill.disk_mb", med (fun _ p -> float_of_int p.disk /. 1048576.0));
        ]
      @ core_layers ~factor_windows:false ~eta:cfg.Engine_wl.gen.Gen.eta
          first.compiled)
