(* The segment shared by the two workloads that drive
   [Fw_engine.Stream_exec] directly ([stream-fw], [spill-wide]):
   compile, create, warm up over the longest window, feed the timed
   batches, close. *)

open Common
module Stream_exec = Fw_engine.Stream_exec
module Batch = Fw_engine.Batch
module Metrics = Fw_engine.Metrics

type config = {
  sql : string;
  factor_windows : bool;
  mode : Stream_exec.mode;
  gen : Gen.spec;  (* seed overridden by the run's *)
  batch : int;  (* events per feed_batch call *)
  warm_ticks : int;  (* covers the longest window once *)
  timed_ticks : int;
  budget : int option;  (* Fw_spill pool budget in bytes *)
  sorted : bool;  (* rows digested in Row.compare order, not emission order *)
}

let events_of cfg ticks = ticks * cfg.gen.Gen.eta
let horizon cfg = cfg.warm_ticks + cfg.timed_ticks

(* Fw_spill pool figures of one segment's timed phase. *)
type pool_stats = {
  faults : int;
  evictions : int;
  compactions : int;
  peak_resident : int;  (* bytes, whole segment *)
  fault_p50_ns : float;
  disk : int;  (* bytes at the end of the timed phase *)
}

type seg = {
  setup_ns : int;
  busy_ns : int;  (* feed_batch + close, timed phase *)
  timed_events : int;
  feed_ns : int;  (* feed_batch only *)
  close_ns : int;
  batch_ns : int list;
  compile_ns : int;
  digest : string * int;
  metrics : Metrics.t;
  compiled : Fw_sql.Compile.compiled;
  pool : pool_stats option;
}

let compile ctx ~eta ~factor_windows sql =
  let r, ns =
    Mono.time (fun () ->
        span ctx ~op:0 "sqlfront.compile" (fun () ->
            Fw_sql.Compile.compile ~eta ~factor_windows sql))
  in
  match r with
  | Ok c -> (c, ns)
  | Error e -> failwith ("benchmark query does not compile: " ^ e)

(* Feed [n] generated events through [call] in batches; [on_batch] sees
   each call's duration.  Late events count as failed operations. *)
let feed_with ctx call gen b ~batch ~n ~name on_batch =
  let left = ref n and i = ref 0 in
  while !left > 0 do
    let k = min batch !left in
    Gen.fill_batch gen b k;
    let ok, ns =
      Mono.time (fun () ->
          span ctx ~op:!i name (fun () ->
              match call b with
              | () -> true
              | exception Stream_exec.Late_event _ -> false))
    in
    check ctx ok "%s: late event in batch %d" name !i;
    on_batch ns;
    left := !left - k;
    incr i
  done

let feed ctx exec = feed_with ctx (Stream_exec.feed_batch exec)

let run_segment ctx cfg =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let b = Batch.create () in
  (* setup: every program call until the pipeline is warm *)
  let compiled, compile_ns =
    compile ctx ~eta:cfg.gen.Gen.eta ~factor_windows:cfg.factor_windows cfg.sql
  in
  let plan = compiled.Fw_sql.Compile.outcome.Fw_plan.Rewrite.plan in
  let metrics = Metrics.create () in
  let pool_dir = Filename.concat ctx.scratch "spill" in
  let (exec, pool), create_ns =
    Mono.time (fun () ->
        span ctx ~op:0 "engine.create" (fun () ->
            let pool =
              Option.map
                (fun budget ->
                  rm_rf pool_dir;
                  Fw_spill.Pool.create ~registry:(Metrics.registry metrics)
                    ~dir:pool_dir ~budget ())
                cfg.budget
            in
            (Stream_exec.create ~metrics ~mode:cfg.mode ?spill:pool plan, pool)))
  in
  let warm_ns = ref 0 in
  feed ctx exec gen b ~batch:cfg.batch ~n:(events_of cfg cfg.warm_ticks)
    ~name:"engine.feed_batch" (fun ns -> warm_ns := !warm_ns + ns);
  let setup_ns = compile_ns + create_ns + !warm_ns in
  (* timed phase *)
  let pool_stat name =
    match pool with Some _ -> counter_sum (Metrics.registry metrics) name | None -> 0
  in
  let faults0 = pool_stat "spill_faults_total"
  and evictions0 = pool_stat "spill_evictions_total"
  and compactions0 = pool_stat "spill_compactions_total" in
  let batch_ns = ref [] and feed_ns = ref 0 in
  let timed_events = events_of cfg cfg.timed_ticks in
  feed ctx exec gen b ~batch:cfg.batch ~n:timed_events ~name:"engine.feed_batch"
    (fun ns ->
      batch_ns := ns :: !batch_ns;
      feed_ns := !feed_ns + ns);
  let pool_stats =
    Option.map
      (fun p ->
        {
          faults = pool_stat "spill_faults_total" - faults0;
          evictions = pool_stat "spill_evictions_total" - evictions0;
          compactions = pool_stat "spill_compactions_total" - compactions0;
          peak_resident = Fw_spill.Pool.peak_resident_bytes p;
          fault_p50_ns = hist_quantile (Metrics.registry metrics) "spill_fault_ns" 0.5;
          disk = Fw_spill.Pool.disk_bytes p;
        })
      pool
  in
  let rows, close_ns =
    Mono.time (fun () ->
        span ctx ~op:0 "engine.close" (fun () ->
            Stream_exec.close exec ~horizon:(horizon cfg)))
  in
  Option.iter Fw_spill.Pool.close pool;
  rm_rf pool_dir;
  {
    setup_ns;
    busy_ns = !feed_ns + close_ns;
    timed_events;
    feed_ns = !feed_ns;
    close_ns;
    batch_ns = List.rev !batch_ns;
    compile_ns;
    digest = rows_digest ~sorted:cfg.sorted rows;
    metrics;
    compiled;
    pool = pool_stats;
  }

(* The same input through another plan / mode / budget, untimed: the
   independent side of the output check.  Returns the rows' digest. *)
let reference_digest ctx cfg ?spill ~mode plan =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let b = Batch.create () in
  let exec = Stream_exec.create ~mode ?spill plan in
  let saved = ctx.tracer in
  ctx.tracer <- None;
  feed ctx exec gen b ~batch:cfg.batch
    ~n:(events_of cfg (horizon cfg))
    ~name:"reference" ignore;
  ctx.tracer <- saved;
  rows_digest ~sorted:cfg.sorted (Stream_exec.close exec ~horizon:(horizon cfg))

let rate s = float_of_int s.timed_events /. (float_of_int s.busy_ns /. 1e9)

(* Every segment replays the same input, so every segment's rows must be
   byte-identical to the first's. *)
let check_repeats ctx name segs =
  match List.map snd segs with
  | [] -> ()
  | first :: rest ->
      List.iteri
        (fun i s ->
          check ctx (s.digest = first.digest)
            "%s: segment %d rows differ from segment 0" name (i + 1))
        rest

let report segs ~layer =
  let untraced_segs = untraced segs in
  let batch_ms = Stats.create () in
  List.iter
    (fun s -> List.iter (fun ns -> Stats.add batch_ms (ms_of_ns ns)) s.batch_ns)
    untraced_segs;
  {
    setup_s = List.map (fun (_, s) -> float_of_int s.setup_ns /. 1e9) segs;
    rates = List.map rate untraced_segs;
    batch_ms;
    layer;
    overhead_pct = overhead segs rate;
  }

(* Layer figures common to both engine workloads, from traced segments. *)
let engine_layer_figures segs =
  let ts = traced_or_all segs in
  let last = List.nth ts (List.length ts - 1) in
  let events = List.fold_left (fun a s -> a + s.timed_events) 0 ts in
  let feed = List.fold_left (fun a s -> a + s.feed_ns) 0 ts in
  [
    ("engine.feed_ns_per_event", per_event feed events);
    ("engine.close_ms", Stats.median_list (List.map (fun s -> ms_of_ns s.close_ns) ts));
    ( "sqlfront.compile_ms",
      Stats.median_list (List.map (fun s -> ms_of_ns s.compile_ns) ts) );
  ]
  @ engine_layers last.metrics ~rows:(snd last.digest)
