(* What every workload shares: the run context, the segment loop,
   failure accounting, and readers for the program's own metrics. *)

module Registry = Fw_obs.Registry
module Histogram = Fw_obs.Histogram
module Row = Fw_engine.Row

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  scratch : string;  (* all files the run writes live under here *)
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (* failed checks, newest first *)
  mutable tracer : Spans.t option;  (* [Some all_spans] in traced segments *)
  mutable speeds : float list;  (* host speed vs the reference, per segment *)
  mutable host_speed : float;  (* their median *)
  mutable peak_rss_mb : float;  (* VmHWM when the first segment ended *)
  all_spans : Spans.t;
}

(* One operation against the program: counted as attempted, and as
   failed when [ok] is false. *)
let op ctx ok =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then ctx.failed <- ctx.failed + 1

(* An operation whose failure needs an explanation in the log. *)
let check ctx ok fmt =
  Printf.ksprintf
    (fun m ->
      op ctx ok;
      if not ok then ctx.problems <- m :: ctx.problems)
    fmt

(* A workload self-check: not an operation, but a failed one makes the
   run incorrect, because the workload no longer measures what it is
   named for. *)
let self_check ctx ok fmt =
  Printf.ksprintf
    (fun m -> if not ok then ctx.problems <- ("self-check: " ^ m) :: ctx.problems)
    fmt

let span ctx ?parent ~op name f = Spans.with_span ctx.tracer ?parent ~op name f

(* ---- host speed ----

   On a shared host the speed of the machine drifts with other tenants'
   load, by tens of percent and on every time scale from a second to many
   minutes.  Before each segment the benchmark therefore times a fixed
   calibration kernel — its own code, allocation-heavy like the
   workloads: build, sort and fold float lists, fill a hash table — and
   every duration the segment measures through [Mono.time] is expressed
   in reference-host time, the kernel taking [reference_ns] by
   definition.  Host drift moves the kernel and the workload together
   and cancels; it does so segment by segment, since the host's speed
   changes within a run too.  Durations taken after the last segment use
   the run's median speed.

   The kernel runs in this process, where it sees the host as the
   workload does, but its time must not depend on the program: it runs
   after a full major GC, when the live heap is only the earlier
   segments' digests, counters and compiled plans (a segment hands back
   no rows), and the first probe is
   preceded by an untimed run that grows the heap to the kernel's own
   need, so no probe waits for memory from the OS whatever the program's
   heap did.  A change to the program then moves the scaled figures
   exactly as it moves the raw ones. *)
let reference_ns = 25_000_000

let kernel () =
  let h = Hashtbl.create 1024 in
  let acc = ref 0.0 in
  for r = 1 to 5 do
    let l = List.init 20_000 (fun i -> float_of_int (i * 7919 * r mod 10007)) in
    let l = List.sort compare l in
    List.iteri (fun i x -> if i mod 16 = 0 then Hashtbl.replace h (i + r) x) l;
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  ignore (Sys.opaque_identity (!acc, h))

let make_ctx ~seed ~seconds ~trace ~scratch =
  {
    seed;
    seconds;
    trace;
    scratch;
    attempted = 0;
    failed = 0;
    problems = [];
    tracer = None;
    speeds = [];
    host_speed = 1.0;
    peak_rss_mb = nan;
    all_spans = Spans.create ();
  }

(* The host's speed relative to the reference (above 1: faster), from
   the median of three kernel runs; sets [Mono.scale] for what follows. *)
let calibrate () =
  let once () =
    let t0 = Mono.now_ns () in
    kernel ();
    float_of_int (Mono.since t0)
  in
  let speed = float_of_int reference_ns /. Stats.median_list (List.init 3 (fun _ -> once ())) in
  Mono.scale := speed;
  speed

(* Process VmHWM, MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

(* ---- the segment loop ----

   A run is a sequence of identical segments over the same seeded input:
   set up, feed the timed phase, tear down.  Segments repeat until the
   run's time is used (and at least [min] times), so set-up is sampled
   several times, throughput is a median of per-segment rates, and the
   heap never holds more than one segment's output.  In a traced run
   every second segment is traced; the untraced ones still give the
   end-to-end figures and the tracing overhead.

   A segment hands back digests and figures, never rows, so no segment's
   output is live while a later one runs.  The peak RSS is read when the
   first segment ends: one pipeline's life from an empty heap, before any
   output check runs, and not the heap fragmentation that a run-length
   (so host-speed) dependent number of repetitions leaves behind. *)
let segments ctx ~min run =
  let t0 = Mono.now_ns () in
  let speeds = ref [] in
  kernel ();
  let budget = int_of_float (ctx.seconds *. 1e9) in
  let rec go i acc =
    if i >= min && Mono.since t0 >= budget then begin
      ctx.speeds <- List.rev !speeds;
      ctx.host_speed <- Stats.median_list !speeds;
      Mono.scale := ctx.host_speed;
      List.rev acc
    end
    else begin
      (* every segment starts from the same heap: the last one's garbage
         would otherwise be collected on this one's time *)
      Gc.full_major ();
      speeds := calibrate () :: !speeds;
      let traced = ctx.trace && i mod 2 = 1 in
      ctx.tracer <- (if traced then Some ctx.all_spans else None);
      let r = run ~index:i ~traced in
      ctx.tracer <- None;
      if i = 0 then ctx.peak_rss_mb <- peak_rss_mb ();
      go (i + 1) ((traced, r) :: acc)
    end
  in
  go 0 []

let untraced segs = List.filter_map (fun (tr, r) -> if tr then None else Some r) segs
let traced segs = List.filter_map (fun (tr, r) -> if tr then Some r else None) segs

(* ---- the program's metrics registry ---- *)

let histograms reg name =
  List.filter_map
    (fun (e : Registry.entry) ->
      match e.metric with
      | Registry.Histogram h when e.name = name -> Some h
      | _ -> None)
    (Registry.entries reg)

let merged_histogram reg name =
  let into = Histogram.create () in
  List.iter (fun h -> Histogram.merge_into ~into h) (histograms reg name);
  into

let hist_quantile reg name q =
  let h = merged_histogram reg name in
  match Histogram.quantile h q with Some v -> float_of_int v | None -> 0.0

(* Sum of a counter over all its label sets. *)
let counter_sum reg name =
  List.fold_left
    (fun acc (e : Registry.entry) ->
      match e.metric with
      | Registry.Counter c when e.name = name -> acc + Fw_obs.Counter.get c
      | _ -> acc)
    0 (Registry.entries reg)

(* ---- per-layer figures every engine workload reports ---- *)

let ms_of_ns ns = float_of_int ns /. 1e6

(* Windows the optimizer inserted: computed but not exposed. *)
let factor_window_count plan =
  Array.fold_left
    (fun acc op ->
      match op with
      | Fw_plan.Plan.Win_agg { expose = false; _ } -> acc + 1
      | _ -> acc)
    0 (Fw_plan.Plan.nodes plan)

let per_event n events = if events = 0 then 0.0 else float_of_int n /. float_of_int events

(* Engine and aggregate counters of one finished pipeline. *)
let engine_layers metrics ~rows =
  let module M = Fw_engine.Metrics in
  let reg = M.registry metrics in
  let events = M.ingested metrics in
  let fallback_nodes =
    List.sort_uniq compare (List.map (fun (n, _, _, _) -> n) (M.fallbacks metrics))
  in
  [
    ("engine.items_per_event", per_event (M.total_processed metrics) events);
    ("engine.fallback_nodes", float_of_int (List.length fallback_nodes));
    ("engine.rows_per_event", per_event rows events);
    ("engine.fire_us_p50", hist_quantile reg "node_fire_ns" 0.5 /. 1e3);
    ("engine.fire_us_p99", hist_quantile reg "node_fire_ns" 0.99 /. 1e3);
    ( "agg.pane_flushes_per_event",
      per_event (counter_sum reg "node_pane_flushes_total") events );
    ( "agg.swag_evictions_per_event",
      per_event (counter_sum reg "node_swag_evictions_total") events );
  ]

(* Optimizer figures for a compiled query: model cost ratio, factor
   windows inserted, and the optimizer's own time on the analyzed window
   set (median of a few calls). *)
let core_layers ?factor_windows ~eta (c : Fw_sql.Compile.compiled) =
  let a = c.Fw_sql.Compile.analysis in
  let times =
    List.init 5 (fun _ ->
        let _, ns =
          Mono.time (fun () ->
              Factor_windows.Optimizer.optimize ~eta ?factor_windows
                a.Fw_sql.Analyze.agg a.Fw_sql.Analyze.windows)
        in
        ms_of_ns ns)
  in
  let outcome = c.Fw_sql.Compile.outcome in
  let ratio =
    match (outcome.Fw_plan.Rewrite.optimization, outcome.Fw_plan.Rewrite.naive_cost) with
    | Some r, Some naive when naive > 0 ->
        float_of_int r.Fw_wcg.Algorithm1.total /. float_of_int naive
    | _ -> 1.0
  in
  [
    ("core.optimize_ms", Stats.median_list times);
    ("core.cost_ratio", ratio);
    ("core.factor_windows", float_of_int (factor_window_count outcome.Fw_plan.Rewrite.plan));
  ]

(* ---- rows ---- *)

(* Exact digest of a row sequence: every field, the value by its bit
   pattern, so equal digests mean byte-identical rows.  [~sorted] digests
   the rows in [Row.compare] order, for paths that emit the same rows in
   another order. *)
let rows_digest ?(sorted = false) rows =
  let rows = if sorted then Row.sort rows else rows in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (r : Row.t) ->
      Printf.bprintf buf "%s|%d|%d|%s|%Lx\n"
        (Fw_window.Window.to_string r.Row.window)
        (Fw_window.Interval.lo r.Row.interval)
        (Fw_window.Interval.hi r.Row.interval)
        r.Row.key
        (Int64.bits_of_float r.Row.value))
    rows;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), List.length rows)

(* ---- scratch files ---- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      (try Sys.rmdir path with Sys_error _ -> ())
  | false -> (try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let fresh_dir ctx name =
  let d = Filename.concat ctx.scratch name in
  rm_rf d;
  mkdir_p d;
  d

(* ---- what a workload hands back ---- *)

type report = {
  setup_s : float list;  (* one per segment *)
  rates : float list;  (* events per busy second, untraced segments *)
  batch_ms : Stats.samples;  (* ingest call durations, untraced segments *)
  layer : (string * float) list;  (* per-layer metrics this workload defines *)
  overhead_pct : float option;  (* traced vs untraced throughput *)
}

(* Per-layer figures from traced segments, falling back to all segments
   when the run traced none. *)
let traced_or_all segs =
  match traced segs with [] -> List.map snd segs | l -> l

let overhead segs rate =
  match (untraced segs, traced segs) with
  | (_ :: _ as u), (_ :: _ as t) ->
      let mu = Stats.median_list (List.map rate u)
      and mt = Stats.median_list (List.map rate t) in
      Some (100.0 *. ((mu /. mt) -. 1.0))
  | _ -> None
