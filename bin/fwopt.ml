(* fwopt: command-line front end to the factor-windows optimizer.

   Subcommands:
     optimize  - compile an ASA-like SQL query and print the rewriting
     run       - compile, execute on synthetic events, verify vs naive
     gen       - generate random window sets (Section 5.2 generators)
     eval      - regenerate a figure's cost series from a seed *)

open Cmdliner
open Fw_window
module Optimizer = Factor_windows.Optimizer
module Evaluation = Factor_windows.Evaluation
module Report = Factor_windows.Report
module Set_gen = Fw_workload.Set_gen
module Graph_gen = Fw_workload.Graph_gen
module Event_gen = Fw_workload.Event_gen

let read_file = function
  | "-" ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf stdin 1
         done
       with End_of_file -> ());
      Buffer.contents buf
  | path -> (
      try In_channel.with_open_bin path In_channel.input_all
      with Sys_error msg ->
        (* open errors name the path already, read errors do not *)
        let msg =
          if String.starts_with ~prefix:path msg then msg else path ^ ": " ^ msg
        in
        Printf.eprintf "fwopt: cannot read query file %s\n" msg;
        exit 2)

(* --- common arguments --- *)

let query_arg =
  let doc = "SQL query text (overrides $(docv))." in
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"SQL" ~doc)

let file_arg =
  let doc = "File containing the query; '-' reads standard input." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let eta_arg =
  let doc = "Steady input event rate (events per tick)." in
  Arg.(value & opt int 1 & info [ "eta" ] ~docv:"N" ~doc)

let no_factor_arg =
  let doc = "Disable factor windows (plain Algorithm 1)." in
  Arg.(value & flag & info [ "no-factor-windows" ] ~doc)

let seed_arg =
  let doc = "PRNG seed (all randomness is reproducible from it)." in
  Arg.(value & opt int 20260705 & info [ "seed" ] ~docv:"SEED" ~doc)

let load_query query file =
  match query with Some q -> q | None -> read_file file

(* --- optimize --- *)

let optimize_cmd =
  let action query file eta no_factor trill_only dot multi show_trace =
    let input = load_query query file in
    if multi then
      match
        Fw_sql.Compile.compile_multi ~eta ~factor_windows:(not no_factor)
          input
      with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
      | Ok compiled -> print_string (Fw_sql.Compile.explain_multi compiled)
    else
      match
        Optimizer.of_query ~eta ~factor_windows:(not no_factor) input
      with
      | Error e ->
          Printf.eprintf "error: %s\n" e;
          exit 1
      | Ok t ->
          if show_trace then begin
            match Fw_agg.Aggregate.semantics t.Optimizer.agg with
            | Some semantics ->
                print_endline
                  (Factor_windows.Explain.render
                     (Factor_windows.Explain.trace ~eta semantics
                        t.Optimizer.windows))
            | None ->
                Printf.eprintf "holistic aggregate: nothing to trace\n";
                exit 1
          end
          else if dot then
            match t.Optimizer.outcome.Fw_plan.Rewrite.optimization with
            | Some result -> print_string (Fw_wcg.Dot.result result)
            | None ->
                Printf.eprintf
                  "no WCG to render (holistic aggregate, naive plan)\n";
                exit 1
          else if trill_only then print_endline (Optimizer.trill t)
          else print_string (Optimizer.explain t)
  in
  let trill_only =
    Arg.(value & flag
         & info [ "trill-only" ] ~doc:"Print only the rewritten Trill plan.")
  in
  let dot =
    Arg.(value & flag
         & info [ "dot" ] ~doc:"Emit the min-cost WCG as Graphviz dot.")
  in
  let multi =
    Arg.(value & flag
         & info [ "multi" ]
             ~doc:"Allow several aggregate functions; optimize each.")
  in
  let show_trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Print the step-by-step optimizer decisions.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Compile a query and print the rewriting.")
    Term.(const action $ query_arg $ file_arg $ eta_arg $ no_factor_arg
          $ trill_only $ dot $ multi $ show_trace)

(* --- run --- *)

(* --throttle: cap the feed rate (events per wall-clock second) so a
   live run lasts long enough to scrape and watch. *)
let pacer = function
  | None -> fun () -> ()
  | Some rate ->
      let t0 = Unix.gettimeofday () in
      let fed = ref 0 in
      fun () ->
        incr fed;
        let target = float_of_int !fed /. rate in
        let elapsed = Unix.gettimeofday () -. t0 in
        if target > elapsed then Unix.sleepf (target -. elapsed)

(* The one sink `run` feeds: a plain executor, a fresh checkpointed
   pipeline (--checkpoint, with --crash-after armed as its fault plan)
   or one rebuilt from a durable directory (--recover).  Returns how
   many leading events the sink already holds — the durable prefix a
   recovered run skips in the regenerated stream — with the sink's
   metrics, its batch entry point and its close. *)
let open_sink ~metrics ~mode ?spill ~every ~crash_after ~checkpoint_dir
    ~recover_dir plan =
  let durable ~skip cp =
    ( skip,
      Fw_snap.Checkpoint.metrics cp,
      Fw_snap.Checkpoint.feed_batch cp,
      Fw_snap.Checkpoint.close cp )
  in
  match (checkpoint_dir, recover_dir) with
  | Some dir, _ -> (
      let fault = Fw_snap.Fault.create ?crash_at_event:crash_after () in
      match
        Fw_snap.Checkpoint.create ~metrics ~dir ~every ~fault ~mode ?spill plan
      with
      | cp -> durable ~skip:0 cp
      | exception Invalid_argument m ->
          (* a used directory is refused before anything is written *)
          Printf.eprintf "%s\n" m;
          exit 2)
  | None, Some dir -> (
      match Fw_snap.Recover.load ~dir ~every ~mode ?spill plan with
      | Error m ->
          Printf.eprintf "recovery failed: %s\n" m;
          exit 1
      | Ok r ->
          Printf.printf "recovered from %s (snapshot %s, %d events + %d \
                         punctuations replayed); resuming\n"
            dir
            (match r.Fw_snap.Recover.recovered_from with
            | Some g -> string_of_int g
            | None -> "none, full log")
            r.Fw_snap.Recover.replayed_events
            r.Fw_snap.Recover.replayed_advances;
          List.iter
            (fun (g, e) -> Printf.printf "  skipped snapshot %d: %s\n" g e)
            r.Fw_snap.Recover.skipped;
          durable
            ~skip:(Fw_engine.Metrics.ingested r.Fw_snap.Recover.metrics)
            r.Fw_snap.Recover.checkpoint)
  | None, None ->
      let exec = Fw_engine.Stream_exec.create ~metrics ~mode ?spill plan in
      ( 0,
        metrics,
        Fw_engine.Stream_exec.feed_batch exec,
        Fw_engine.Stream_exec.close exec )

let run_cmd =
  let action query file eta no_factor seed horizon show_rows shuffle lateness
      events_file csv_out incremental stats checkpoint_dir every recover_dir
      crash_after batch_opt key_skew keys_n serve_port throttle drift
      memory_budget =
    let stats =
      match stats with
      | None -> None
      | Some ("json" | "prom" | "text" as fmt) -> Some fmt
      | Some other ->
          Printf.eprintf "unknown --stats format %s (json|prom|text)\n" other;
          exit 2
    in
    (match (checkpoint_dir, recover_dir) with
    | Some _, Some _ ->
        Printf.eprintf
          "--checkpoint and --recover are mutually exclusive (a fresh run \
           vs resuming one)\n";
        exit 2
    | _ -> ());
    if every < 1 then begin
      Printf.eprintf "--every must be >= 1 (got %d)\n" every;
      exit 2
    end;
    (match crash_after with
    | Some k when k < 1 ->
        Printf.eprintf "--crash-after must be >= 1 (got %d)\n" k;
        exit 2
    | Some _ when checkpoint_dir = None ->
        Printf.eprintf "--crash-after requires --checkpoint (nothing would \
                        survive the crash)\n";
        exit 2
    | _ -> ());
    (match batch_opt with
    | Some b when b < 1 ->
        Printf.eprintf "--batch must be >= 1 (got %d)\n" b;
        exit 2
    | _ -> ());
    if key_skew < 0.0 || not (Float.is_finite key_skew) then begin
      Printf.eprintf "--key-skew must be a finite float >= 0 (got %g)\n"
        key_skew;
      exit 2
    end;
    (match keys_n with
    | Some k when k < 1 ->
        Printf.eprintf "--keys must be >= 1 (got %d)\n" k;
        exit 2
    | _ -> ());
    (match serve_port with
    | Some p when p < 0 || p > 65535 ->
        Printf.eprintf "--serve port must be in 0..65535 (got %d)\n" p;
        exit 2
    | Some _ when recover_dir <> None ->
        Printf.eprintf
          "--serve cannot combine with --recover (recovery replays a \
           durable log, not a live stream)\n";
        exit 2
    | _ -> ());
    (match throttle with
    | Some r when r <= 0.0 || not (Float.is_finite r) ->
        Printf.eprintf
          "--throttle must be a finite rate > 0 events/sec (got %g)\n" r;
        exit 2
    | Some _ when recover_dir <> None ->
        Printf.eprintf "--throttle applies to live feeding (not --recover)\n";
        exit 2
    | _ -> ());
    (match drift with
    | Some th when th <= 1.0 || not (Float.is_finite th) ->
        Printf.eprintf "--drift threshold must be > 1.0 (got %g)\n" th;
        exit 2
    | _ -> ());
    if lateness < 0 then begin
      Printf.eprintf "--lateness must be >= 0 ticks (got %d)\n" lateness;
      exit 2
    end;
    (match memory_budget with
    | Some b when b < 0 ->
        Printf.eprintf "--memory-budget must be >= 0 bytes (got %d)\n" b;
        exit 2
    | _ -> ());
    match
      Optimizer.of_query ~eta ~factor_windows:(not no_factor)
        (load_query query file)
    with
    | Error e ->
        Printf.eprintf "error: %s\n" e;
        exit 1
    | Ok t ->
        let prng = Fw_util.Prng.create seed in
        let gen_config =
          {
            Event_gen.default_config with
            Event_gen.keys =
              (match keys_n with
              | None -> Event_gen.default_config.Event_gen.keys
              | Some k -> Event_gen.key_pool k);
            key_dist =
              (if key_skew > 0.0 then Event_gen.Zipf key_skew
               else Event_gen.Uniform);
          }
        in
        (* one canonical order for either source: the generator is
           time-ordered but draws same-tick keys in random order *)
        let events =
          Fw_engine.Event.sort
            (match events_file with
            | None -> Event_gen.steady prng gen_config ~eta ~horizon
            | Some path -> (
                match Fw_engine.Csv_io.load_events path with
                | Ok events -> events
                | Error e ->
                    Printf.eprintf "cannot read events: %s\n" e;
                    exit 1))
        in
        (match Optimizer.verify t ~horizon events with
        | Error e ->
            Printf.eprintf "VERIFICATION FAILED: %s\n" e;
            exit 1
        | Ok () -> ());
        (* --shuffle: the same events arrive out of order, and a
           reorder stage in front of the sink puts them back *)
        let arrivals =
          if shuffle then Fw_util.Prng.shuffle prng events else events
        in
        let mode =
          if incremental then Fw_engine.Stream_exec.Incremental
          else Fw_engine.Stream_exec.Naive
        in
        (* One metrics registry up front, handed to the sink, so
           --serve can expose it while the run is still feeding.
           (--recover keeps its own: its metrics are reconstructed
           from the durable log.) *)
        let metrics = Fw_engine.Metrics.create () in
        (* a trace makes the executor sample every activation; only
           pay for that when the snapshot will carry it *)
        if stats = Some "json" then
          Fw_engine.Metrics.set_trace metrics (Fw_obs.Trace.create ());
        let pace = pacer throttle in
        (* One pool for the whole run, on the served registry so the
           spill series are live-scrapable. *)
        let spill =
          Option.map
            (fun budget ->
              Fw_spill.Pool.create
                ~registry:(Fw_engine.Metrics.registry metrics)
                ~budget ())
            memory_budget
        in
        let server =
          match serve_port with
          | None -> None
          | Some port ->
              let reg = Fw_engine.Metrics.registry metrics in
              let meter = Fw_obs.Meter.create reg in
              let s = Fw_obs.Scrape.start ~meter ~port reg in
              Printf.eprintf "serving metrics on http://127.0.0.1:%d/metrics\n%!"
                (Fw_obs.Scrape.port s);
              Some s
        in
        let execute () =
          let skip, metrics, feed_batch, close =
            open_sink ~metrics ~mode ?spill ~every ~crash_after
              ~checkpoint_dir ~recover_dir (Optimizer.optimized_plan t)
          in
          let stage =
            if shuffle then
              Some
                (Fw_engine.Reorder.create
                   ~registry:(Fw_engine.Metrics.registry metrics)
                   ~lateness ())
            else None
          in
          (try
             Fw_engine.Run.feed_stream
               ~batch:(Option.value batch_opt ~default:1)
               ~pace ~skip ?stage feed_batch ~horizon arrivals
           with Fw_snap.Fault.Crash _ ->
             (* only an armed --checkpoint run crashes: leave the
                directory behind for --recover, exit cleanly *)
             let dir = Option.get checkpoint_dir in
             Printf.printf
               "simulated crash after %d events; durable state in %s \
                (resume with --recover %s)\n"
               (Option.get crash_after) dir dir;
             exit 0);
          let rows = close ~horizon in
          ( { Fw_engine.Run.rows; metrics },
            Option.map Fw_engine.Reorder.stats stage )
        in
        let report, reorder =
          Fun.protect
            ~finally:(fun () ->
              Option.iter Fw_obs.Scrape.stop server;
              Option.iter Fw_spill.Pool.close spill)
            execute
        in
        let metrics = report.Fw_engine.Run.metrics in
        (match stats with
        | Some "json" -> print_endline (Fw_engine.Metrics.snapshot_json metrics)
        | Some "prom" -> print_string (Fw_engine.Metrics.prometheus metrics)
        | _ ->
            Option.iter
              (fun s ->
                Printf.printf
                  "reorder: released %d, dropped %d late, peak buffer %d\n"
                  s.Fw_engine.Reorder.released s.Fw_engine.Reorder.dropped_late
                  s.Fw_engine.Reorder.buffered_peak)
              reorder;
            Printf.printf
              "verified against the naive plan; %d result rows, %d items \
               processed (naive model cost %s).\n"
              (List.length report.Fw_engine.Run.rows)
              (Fw_engine.Metrics.total_processed metrics)
              (match Optimizer.naive_cost t with
              | Some c -> string_of_int c
              | None -> "n/a");
            Format.printf "%a@." Fw_engine.Metrics.pp metrics;
            if stats = Some "text" then begin
              (match Fw_engine.Metrics.fallbacks metrics with
              | [] -> ()
              | fbs ->
                  print_endline "incremental fallbacks:";
                  List.iter
                    (fun (node, w, reason, n) ->
                      Printf.printf "  node %d %s: %s (x%d)\n" node w reason n)
                    fbs);
              print_string (Fw_engine.Metrics.prometheus metrics)
            end);
        (match drift with
        | None -> ()
        | Some threshold -> (
            match t.Optimizer.outcome.Fw_plan.Rewrite.optimization with
            | Some result
              when List.for_all
                     (fun w -> Window.hop_domain w = Some Window.Time)
                     t.Optimizer.windows ->
                (* sub-aggregate traffic is per key: predict with the
                   key count the stream actually carried *)
                let keys =
                  List.length
                    (List.sort_uniq String.compare
                       (List.filter_map
                          (fun e ->
                            if e.Fw_engine.Event.time < horizon then
                              Some e.Fw_engine.Event.key
                            else None)
                          events))
                in
                print_endline
                  (Report.drift_table ~threshold ~keys:(max 1 keys) ~horizon
                     result metrics)
            | Some _ ->
                print_endline
                  "drift: n/a (count/session windows have no static cost \
                   model)"
            | None ->
                print_endline
                  "drift: n/a (no cost model — holistic aggregate or naive \
                   fallback)"));
        if csv_out then
          print_string (Fw_engine.Csv_io.rows_to_csv report.Fw_engine.Run.rows)
        else if show_rows then
          List.iter
            (fun r -> Format.printf "%a@." Fw_engine.Row.pp r)
            report.Fw_engine.Run.rows
  in
  let horizon =
    Arg.(value & opt int 240
         & info [ "horizon" ] ~docv:"TICKS" ~doc:"Replay horizon in ticks.")
  in
  let show_rows =
    Arg.(value & flag & info [ "rows" ] ~doc:"Print every result row.")
  in
  let shuffle =
    Arg.(value & flag
         & info [ "shuffle" ]
             ~doc:"Shuffle the stream's arrival order and put a reorder \
                   stage (allowed lateness $(b,--lateness)) in front of the \
                   sink: it releases the events in time order with a \
                   watermark at each advance, and drops and counts those \
                   behind it.  Composes with every sink and option \
                   ($(b,--batch), $(b,--incremental), $(b,--memory-budget), \
                   $(b,--checkpoint)/$(b,--recover), $(b,--throttle)); \
                   the rows are the run's own.")
  in
  let lateness =
    Arg.(value & opt int 1000
         & info [ "lateness" ] ~docv:"TICKS"
             ~doc:"Allowed lateness for --shuffle (>= 0).")
  in
  let events_file =
    Arg.(value & opt (some string) None
         & info [ "events" ] ~docv:"CSV"
             ~doc:"Read events from a CSV file (time,key,value; '-' = \
                   stdin) instead of generating them.")
  in
  let csv_out =
    Arg.(value & flag
         & info [ "csv" ] ~doc:"Emit result rows as CSV on stdout.")
  in
  let incremental =
    Arg.(value & flag
         & info [ "incremental" ]
             ~doc:"Execute with the pane-based incremental engine (nodes \
                   where panes don't apply fall back per node; the stats \
                   snapshot counts the fallbacks with their reasons).")
  in
  let stats =
    Arg.(value
         & opt (some string) None ~vopt:(Some "text")
         & info [ "stats" ] ~docv:"FMT"
             ~doc:"Emit the run's metrics snapshot: $(b,json) (registry + \
                   trace), $(b,prom) (Prometheus text exposition) or \
                   $(b,text) (human summary + exposition).")
  in
  let checkpoint_dir =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"DIR"
             ~doc:"Execute through the durable checkpointing pipeline: \
                   snapshots and a write-ahead event log land in $(docv) \
                   (created if needed), a snapshot every $(b,--every) \
                   events.")
  in
  let every =
    Arg.(value & opt int 1000
         & info [ "every" ] ~docv:"N"
             ~doc:"Checkpoint cadence (events between snapshots) for \
                   --checkpoint / --recover.")
  in
  let recover_dir =
    Arg.(value & opt (some string) None
         & info [ "recover" ] ~docv:"DIR"
             ~doc:"Resume a crashed --checkpoint run: load the newest valid \
                   snapshot from $(docv) (falling back past corrupt ones), \
                   replay the log tail, skip the already-durable prefix of \
                   the regenerated stream and finish the run.  The rows and \
                   counters match an uninterrupted run exactly.")
  in
  let crash_after =
    Arg.(value & opt (some int) None
         & info [ "crash-after" ] ~docv:"K"
             ~doc:"With --checkpoint: stop dead after $(docv) events \
                   (exit 0), leaving the directory for --recover — lets a \
                   script exercise the full crash/recovery cycle.")
  in
  let batch =
    Arg.(value & opt (some int) None
         & info [ "batch" ] ~docv:"N"
             ~doc:"Feed the stream in columnar batches of $(docv) events \
                   through the engine's vectorized path (with --checkpoint \
                   / --recover: batched durable ingestion).  Rows and \
                   cost-model counters are byte-identical to the per-event \
                   run at any size.")
  in
  let key_skew =
    Arg.(value & opt float 0.0
         & info [ "key-skew" ] ~docv:"S"
             ~doc:"Zipf exponent for the generated keys (0 = uniform; the \
                   i-th key is weighted 1/i^$(docv)).  Skewed keys \
                   concentrate per-key state on few keys.")
  in
  let keys_n =
    Arg.(value & opt (some int) None
         & info [ "keys" ] ~docv:"K"
             ~doc:"Size of the generated key pool (default: the 4 stock \
                   device keys).")
  in
  let serve =
    Arg.(value & opt (some int) None
         & info [ "serve" ] ~docv:"PORT"
             ~doc:"Serve live metrics over HTTP on 127.0.0.1:$(docv) while \
                   the run executes: $(b,/metrics) (Prometheus text), \
                   $(b,/metrics.json) (timestamped snapshot) and \
                   $(b,/healthz).  Scrapes also refresh derived \
                   $(b,*_per_sec) rates and $(b,engine_watermark_lag_ns).  \
                   Port 0 picks an ephemeral one (printed on stderr).  \
                   Combine with --throttle and watch with $(b,fwtop).  Not \
                   available with --recover.")
  in
  let throttle =
    Arg.(value & opt (some float) None
         & info [ "throttle" ] ~docv:"RATE"
             ~doc:"Cap the feed at $(docv) events per wall-clock second, so \
                   a served run lasts long enough to scrape.  Rows and \
                   counters are unchanged — only the pacing differs.")
  in
  let drift =
    Arg.(value
         & opt (some float) None ~vopt:(Some 1.5)
         & info [ "drift" ] ~docv:"THRESH"
             ~doc:"After the run, compare the cost model's predicted \
                   per-window item counts (scaled from the common period to \
                   the horizon) against the engine's measured counters and \
                   flag windows whose actual/predicted ratio escapes \
                   [1/$(docv), $(docv)] (default 1.5).  Assumes the steady \
                   generated stream; with --events the report shows how far \
                   reality drifted from the steady-state model.")
  in
  let memory_budget =
    Arg.(value & opt (some int) None
         & info [ "memory-budget" ] ~docv:"BYTES"
             ~doc:"Bound the engine's resident keyed state to $(docv) bytes: \
                   cold per-key window state spills to disk and faults back \
                   in on access.  Rows and cost-model counters are \
                   byte-identical to the unbounded run at any budget \
                   (including 0, which forces every access to fault).  Spill \
                   traffic is reported via the $(b,spill_*) metrics in \
                   --stats / --serve.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile a query, execute it on synthetic events (or a CSV \
             file) and verify.")
    Term.(const action $ query_arg $ file_arg $ eta_arg $ no_factor_arg
          $ seed_arg $ horizon $ show_rows $ shuffle $ lateness $ events_file
          $ csv_out $ incremental $ stats $ checkpoint_dir $ every
          $ recover_dir $ crash_after $ batch $ key_skew $ keys_n
          $ serve $ throttle $ drift $ memory_budget)

(* --- gen --- *)

let generator_arg =
  let doc = "Window-set generator: random, chain, star or graph." in
  Arg.(value & opt string "random" & info [ "generator"; "g" ] ~docv:"GEN" ~doc)

let tumbling_arg =
  Arg.(value & flag
       & info [ "tumbling" ] ~doc:"Generate tumbling-only variants.")

let gen_sets generator tumbling seed n count =
  let cfg = { Set_gen.default_config with Set_gen.tumbling } in
  match generator with
  | "random" -> Set_gen.batch Set_gen.random ~seed cfg ~n ~count
  | "chain" -> Set_gen.batch Set_gen.chain ~seed cfg ~n ~count
  | "star" -> Set_gen.batch Set_gen.star ~seed cfg ~n ~count
  | "graph" ->
      Graph_gen.batch ~seed
        { Graph_gen.default_config with Graph_gen.set_config = cfg }
        ~count
  | other ->
      Printf.eprintf "unknown generator %s\n" other;
      exit 2

let gen_cmd =
  let action generator tumbling seed n count as_sql =
    let sets = gen_sets generator tumbling seed n count in
    List.iteri
      (fun i ws ->
        if as_sql then begin
          let windows =
            String.concat ",\n    "
              (List.map
                 (fun w ->
                   Printf.sprintf "WINDOW(%s)"
                     (Fw_sql.Printer.window_def (Fw_sql.Ast.def_of_window w)))
                 ws)
          in
          Printf.printf
            "-- set %d\nSELECT MIN(v) FROM input GROUP BY WINDOWS(\n    %s)\n\n"
            (i + 1) windows
        end
        else
          Printf.printf "set%02d: %s\n" (i + 1)
            (String.concat " " (List.map Window.to_string ws)))
      sets
  in
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Windows per set.")
  in
  let count =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"K" ~doc:"Number of sets.")
  in
  let as_sql =
    Arg.(value & flag & info [ "sql" ] ~doc:"Emit each set as a SQL query.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate random window sets (Algorithms 5 and 6).")
    Term.(const action $ generator_arg $ tumbling_arg $ seed_arg $ n $ count
          $ as_sql)

(* --- eval --- *)

let eval_cmd =
  let action generator tumbling seed n count eta =
    let sets = gen_sets generator tumbling seed n count in
    let semantics =
      if tumbling then Coverage.Partitioned_by else Coverage.Covered_by
    in
    let costs = List.map (Evaluation.evaluate ~eta semantics) sets in
    print_endline
      (Report.series
         ~title:
           (Printf.sprintf "%s%s |W|=%d eta=%d seed=%d" generator
              (if tumbling then " (tumbling)" else "")
              n eta seed)
         ~techniques:Evaluation.all_techniques costs)
  in
  let n =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Windows per set.")
  in
  let count =
    Arg.(value & opt int 10 & info [ "count" ] ~docv:"K" ~doc:"Number of sets.")
  in
  Cmd.v
    (Cmd.info "eval"
       ~doc:"Regenerate a figure-style cost comparison from a seed.")
    Term.(const action $ generator_arg $ tumbling_arg $ seed_arg $ n $ count
          $ eta_arg)

let () =
  let info =
    Cmd.info "fwopt" ~version:"1.0.0"
      ~doc:
        "Cost-based query rewriting for aggregates over correlated windows \
         (factor windows)."
  in
  exit (Cmd.eval (Cmd.group info [ optimize_cmd; run_cmd; gen_cmd; eval_cmd ]))
