(* Bench harness: regenerates every table and figure of the paper's
   evaluation (Section 5) as printed data series, validates the cost
   model against the execution engine, runs the ablations called out in
   DESIGN.md, and times the optimizer itself with Bechamel.

   Usage:  main.exe [--seed N] [--section NAME]... [--engine-events N]
   With no --section, every section runs.  Section names: examples,
   table1, fig11, fig12, fig13, fig14, fig15, validate, measured,
   ablation, timing, engine, obs, snap, serve, spill.

   The engine-stack sections measure the execution stack: engine
   (naive vs incremental, per-event vs batched, and the optimizer's
   rewritten plan batched in both modes), obs (instrumentation
   and scrape overhead), snap (checkpointing and a crash/recovery round
   trip), serve (shared vs unshared multi-query ingest, polled rows
   bodies, cold vs warm registration) and spill (wide-key state under
   memory budgets).  Each writes BENCH_<section>.json in one shape (see
   [write_bench]) and gates its own figures; the harness exits 1 when
   any gate fails. *)

open Fw_window
module Evaluation = Factor_windows.Evaluation
module Report = Factor_windows.Report
module Optimizer = Factor_windows.Optimizer
module A1 = Fw_wcg.Algorithm1
module A2 = Fw_factor.Algorithm2
module Cost_model = Fw_wcg.Cost_model
module Set_gen = Fw_workload.Set_gen
module Graph_gen = Fw_workload.Graph_gen
module Event_gen = Fw_workload.Event_gen
module Slicing_cost = Fw_slicing.Cost
module Aggregate = Fw_agg.Aggregate

let default_seed = 20260705

let sections = ref []
let seed = ref default_seed
let csv = ref false
let engine_events = ref 20_000

let () =
  let rec parse = function
    | [] -> ()
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--section" :: name :: rest ->
        sections := name :: !sections;
        parse rest
    | "--engine-events" :: v :: rest ->
        engine_events := int_of_string v;
        parse rest
    | "--csv" :: rest ->
        csv := true;
        parse rest
    | arg :: _ ->
        Printf.eprintf "unknown argument %s\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv))

let enabled name = !sections = [] || List.mem name !sections

let heading fmt =
  Printf.ksprintf
    (fun s ->
      let bar = String.make (String.length s) '=' in
      Printf.printf "\n%s\n%s\n%s\n" bar s bar)
    fmt

let subheading fmt =
  Printf.ksprintf (fun s -> Printf.printf "\n-- %s --\n" s) fmt

(* ------------------------------------------------------------------ *)
(* Examples 6, 7 and 8: the paper's running numbers.                   *)
(* ------------------------------------------------------------------ *)

let section_examples () =
  heading "Running examples (Sections 3-4)";
  let ws6 = List.map Window.tumbling [ 10; 20; 30; 40 ] in
  let env6 = Cost_model.make_env ws6 in
  let a1_6 = A1.run Coverage.Partitioned_by ws6 in
  Printf.printf
    "Example 6: naive C = %d, Algorithm 1 C' = %d (paper: 480 -> 150, 62.5%% \
     off BL=4R)\n"
    (Cost_model.naive_total env6 ws6)
    a1_6.A1.total;
  let ws7 = List.map Window.tumbling [ 20; 30; 40 ] in
  let env7 = Cost_model.make_env ws7 in
  let a1_7 = A1.run Coverage.Partitioned_by ws7 in
  let a2_7 = A2.run Coverage.Partitioned_by ws7 in
  Printf.printf
    "Example 7: naive C = %d, Algorithm 1 C' = %d, Algorithm 2 C'' = %d \
     (paper: 360 / 246 / 150)\n"
    (Cost_model.naive_total env7 ws7)
    a1_7.A1.total a2_7.A1.total;
  Printf.printf
    "Example 8: candidate factor windows and the full-plan cost each yields:\n";
  List.iter
    (fun r_f ->
      let delta =
        Fw_factor.Benefit.delta env7 ~semantics:Coverage.Partitioned_by
          ~target:Fw_factor.Benefit.Stream
          ~downstream:[ Window.tumbling 20; Window.tumbling 30 ]
          ~factor:(Window.tumbling r_f)
      in
      Printf.printf "  W<%d,%d>: delta %+d -> total %d\n" r_f r_f delta
        (a1_7.A1.total + delta))
    [ 2; 5; 10 ];
  Printf.printf
    "  (Algorithm 4 keeps W<10,10>; the paper's footnote-8 values 240/168 \
     count only the Figure-9 pattern, its 150 the full plan.)\n"

(* ------------------------------------------------------------------ *)
(* Table 1: window-slicing cost formulas.                              *)
(* ------------------------------------------------------------------ *)

let section_table1 () =
  heading "Table 1: costs of window slicing techniques";
  let show name ws ~eta =
    subheading "%s (eta = %d)" name eta;
    let rows =
      List.map
        (fun t ->
          let b = Slicing_cost.cost ~eta t ws in
          [
            Slicing_cost.technique_to_string t;
            string_of_int b.Slicing_cost.partial;
            string_of_int b.Slicing_cost.final;
            string_of_int (Slicing_cost.total b);
          ])
        Slicing_cost.all_techniques
    in
    print_endline
      (Report.table ~header:[ "technique"; "partial"; "final"; "total" ] rows)
  in
  show "Example 6 windows (tumbling 10/20/30/40)"
    (List.map Window.tumbling [ 10; 20; 30; 40 ])
    ~eta:100;
  show "Hopping set {W<10,2>, W<12,4>, W<8,2>}"
    [
      Window.make ~range:10 ~slide:2;
      Window.make ~range:12 ~slide:4;
      Window.make ~range:8 ~slide:2;
    ]
    ~eta:100

(* ------------------------------------------------------------------ *)
(* Figures 11-15: technique comparison over generated workloads.       *)
(* ------------------------------------------------------------------ *)

let series ~title ~semantics ~eta sets =
  let costs = List.map (Evaluation.evaluate ~eta semantics) sets in
  if !csv then begin
    (* machine-readable: series,set,technique,cost *)
    List.iteri
      (fun i c ->
        List.iter
          (fun (t, cost) ->
            Printf.printf "%s,set%02d,%s,%d\n" title (i + 1)
              (Evaluation.technique_name t)
              cost)
          c.Evaluation.per_technique)
      costs
  end
  else
  print_endline
    (Report.series ~title ~techniques:Evaluation.all_techniques costs);
  if not !csv then
  (* geometric-mean ratios vs BL, the "who wins by what factor" summary *)
  let geo t =
    let logs =
      List.map
        (fun c ->
          log
            (float_of_int (Evaluation.cost_of c Evaluation.BL)
            /. float_of_int (max 1 (Evaluation.cost_of c t))))
        costs
    in
    exp (List.fold_left ( +. ) 0.0 logs /. float_of_int (List.length logs))
  in
  Printf.printf "geomean speedup vs BL:";
  List.iter
    (fun t ->
      Printf.printf "  %s x%.2f" (Evaluation.technique_name t) (geo t))
    [ Evaluation.UP; Evaluation.SP; Evaluation.WCG; Evaluation.WCG_FW ];
  print_newline ()

let cfg_general = Set_gen.default_config
let cfg_tumbling = { cfg_general with Set_gen.tumbling = true }

let section_fig11 () =
  heading "Figure 11: RandomGen, general windows";
  let sets =
    Set_gen.batch Set_gen.random ~seed:!seed cfg_general ~n:5 ~count:10
  in
  List.iter
    (fun eta ->
      series
        ~title:(Printf.sprintf "fig11 |W|=5 eta=%d" eta)
        ~semantics:Coverage.Covered_by ~eta sets)
    [ 1; 10; 100 ];
  (* The paper also generated 10-window sets and reports "very similar"
     observations; one series verifies that here. *)
  let sets10 =
    Set_gen.batch Set_gen.random ~seed:(!seed + 100) cfg_general ~n:10
      ~count:10
  in
  series ~title:"fig11 |W|=10 eta=100" ~semantics:Coverage.Covered_by
    ~eta:100 sets10

let section_fig12 () =
  heading "Figure 12: RandomGen, |W| = 5, tumbling windows";
  let sets =
    Set_gen.batch Set_gen.random ~seed:(!seed + 1) cfg_tumbling ~n:5 ~count:10
  in
  List.iter
    (fun eta ->
      series
        ~title:(Printf.sprintf "fig12 eta=%d" eta)
        ~semantics:Coverage.Partitioned_by ~eta sets)
    [ 1; 10; 100 ]

let section_fig13 () =
  heading "Figure 13: ChainGen, |W| = 5, eta = 100";
  let general =
    Set_gen.batch Set_gen.chain ~seed:(!seed + 2) cfg_general ~n:5 ~count:10
  in
  series ~title:"fig13(a) general" ~semantics:Coverage.Covered_by ~eta:100
    general;
  let general10 =
    Set_gen.batch Set_gen.chain ~seed:(!seed + 102)
      { cfg_general with Set_gen.params = { cfg_general.Set_gen.params with Fw_workload.Window_gen.k_max = 4 } }
      ~n:10 ~count:10
  in
  series ~title:"fig13(a') general |W|=10" ~semantics:Coverage.Covered_by
    ~eta:100 general10;
  let tumbling =
    Set_gen.batch Set_gen.chain ~seed:(!seed + 3) cfg_tumbling ~n:5 ~count:10
  in
  series ~title:"fig13(b) tumbling" ~semantics:Coverage.Partitioned_by
    ~eta:100 tumbling

let section_fig14 () =
  heading "Figure 14: StarGen, |W| = 5, eta = 100";
  let general =
    Set_gen.batch Set_gen.star ~seed:(!seed + 4) cfg_general ~n:5 ~count:10
  in
  series ~title:"fig14(a) general" ~semantics:Coverage.Covered_by ~eta:100
    general;
  let tumbling =
    Set_gen.batch Set_gen.star ~seed:(!seed + 5) cfg_tumbling ~n:5 ~count:10
  in
  series ~title:"fig14(b) tumbling" ~semantics:Coverage.Partitioned_by
    ~eta:100 tumbling

let section_fig15 () =
  heading
    "Figure 15: RandomGraphGen (3 levels: 2+4+6 windows), eta = 100";
  let sets = Graph_gen.batch ~seed:(!seed + 6) Graph_gen.default_config ~count:10 in
  series ~title:"fig15 general" ~semantics:Coverage.Covered_by ~eta:100 sets;
  let tumbling_cfg =
    { Graph_gen.default_config with Graph_gen.set_config = cfg_tumbling }
  in
  let tsets = Graph_gen.batch ~seed:(!seed + 7) tumbling_cfg ~count:10 in
  series ~title:"fig15 tumbling variant" ~semantics:Coverage.Partitioned_by
    ~eta:100 tsets

(* ------------------------------------------------------------------ *)
(* Validation: analytic cost model vs engine counters.                 *)
(* ------------------------------------------------------------------ *)

let section_validate () =
  heading "Validation: model costs vs measured engine counters";
  let validate_case name agg ws ~eta =
    let outcome = Optimizer.optimize ~eta agg ws in
    match Optimizer.optimized_cost outcome with
    | None -> Printf.printf "%s: holistic, skipped\n" name
    | Some model ->
        let env = Cost_model.make_env ~eta ws in
        let horizon = env.Cost_model.period in
        let events =
          List.concat
            (List.init horizon (fun t ->
                 List.init eta (fun i ->
                     Fw_engine.Event.make ~time:t ~key:"k"
                       ~value:(float_of_int ((t + i) mod 97)))))
        in
        let metrics = Fw_engine.Metrics.create () in
        ignore
          (Fw_engine.Stream_exec.run ~metrics
             (Optimizer.optimized_plan outcome)
             ~horizon events);
        let measured = Fw_engine.Metrics.total_processed metrics in
        let naive_metrics = Fw_engine.Metrics.create () in
        ignore
          (Fw_engine.Stream_exec.run ~metrics:naive_metrics
             (Optimizer.naive_plan outcome) ~horizon events);
        let naive_measured =
          Fw_engine.Metrics.total_processed naive_metrics
        in
        Printf.printf
          "%-28s model opt=%d measured opt=%d | model naive=%d measured \
           naive=%d %s\n"
          name model measured
          (Option.value ~default:0 (Optimizer.naive_cost outcome))
          naive_measured
          (if
             model = measured
             && Optimizer.naive_cost outcome = Some naive_measured
           then "[exact]"
           else "[MISMATCH]")
  in
  validate_case "example 6, MIN, eta=1" Aggregate.Min
    (List.map Window.tumbling [ 10; 20; 30; 40 ])
    ~eta:1;
  validate_case "example 6, SUM, eta=3" Aggregate.Sum
    (List.map Window.tumbling [ 10; 20; 30; 40 ])
    ~eta:3;
  validate_case "example 7, AVG, eta=2" Aggregate.Avg
    (List.map Window.tumbling [ 20; 30; 40 ])
    ~eta:2;
  validate_case "hopping chain, MIN, eta=1" Aggregate.Min
    [
      Window.make ~range:8 ~slide:4;
      Window.make ~range:12 ~slide:4;
      Window.make ~range:24 ~slide:8;
    ]
    ~eta:1

(* ------------------------------------------------------------------ *)
(* Measured execution: run all five techniques on real event streams   *)
(* and count items actually processed (the model's quantity).          *)
(* ------------------------------------------------------------------ *)

let measured_counts semantics ws ~eta ~horizon events =
  let wcg_items result =
    let plan =
      Fw_plan.Rewrite.plan_of_result Aggregate.Min result
    in
    let metrics = Fw_engine.Metrics.create () in
    ignore (Fw_engine.Stream_exec.run ~metrics plan ~horizon events);
    Fw_engine.Metrics.total_processed metrics
  in
  let bl =
    let metrics = Fw_engine.Metrics.create () in
    ignore
      (Fw_engine.Stream_exec.run ~metrics
         (Fw_plan.Plan.naive Aggregate.Min ws)
         ~horizon events);
    Fw_engine.Metrics.total_processed metrics
  in
  let slicing mode =
    let report =
      Fw_slicing.Exec.run Aggregate.Min mode Fw_slicing.Exec.Paired_slicing ws
        ~horizon events
    in
    report.Fw_slicing.Exec.partial_items + report.Fw_slicing.Exec.final_items
  in
  [
    (Evaluation.BL, bl);
    (Evaluation.UP, slicing Fw_slicing.Exec.Unshared);
    (Evaluation.SP, slicing Fw_slicing.Exec.Shared);
    (Evaluation.WCG, wcg_items (A1.run ~eta semantics ws));
    (Evaluation.WCG_FW, wcg_items (A2.best_of ~eta semantics ws));
  ]

let section_measured () =
  heading
    "Measured execution: items processed over real streams (single key, \
     steady rate)";
  let cases =
    [
      ( "example 6 (tumbling), eta=5",
        Coverage.Partitioned_by,
        List.map Window.tumbling [ 10; 20; 30; 40 ],
        5 );
      ( "hopping chain, eta=5",
        Coverage.Covered_by,
        [
          Window.make ~range:8 ~slide:4;
          Window.make ~range:12 ~slide:4;
          Window.make ~range:24 ~slide:8;
        ],
        5 );
      ( "star (tumbling), eta=5",
        Coverage.Partitioned_by,
        List.map Window.tumbling [ 6; 12; 18; 30 ],
        5 );
    ]
  in
  let rows =
    List.map
      (fun (name, semantics, ws, eta) ->
        let env = Cost_model.make_env ~eta ws in
        let horizon = 2 * env.Cost_model.period in
        let events =
          List.concat
            (List.init horizon (fun t ->
                 List.init eta (fun i ->
                     Fw_engine.Event.make ~time:t ~key:"k"
                       ~value:(float_of_int ((t + i) mod 89)))))
        in
        let counts = measured_counts semantics ws ~eta ~horizon events in
        name
        :: List.map
             (fun t -> string_of_int (List.assoc t counts))
             Evaluation.all_techniques)
      cases
  in
  print_endline
    (Report.table
       ~header:
         ("workload"
         :: List.map Evaluation.technique_name Evaluation.all_techniques)
       rows);
  print_endline
    "(UP/SP count slice partials + final combines; BL/WCG/WCG-FW count \
     items folded into fired window instances.)"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 6).                                    *)
(* ------------------------------------------------------------------ *)

let section_ablation () =
  heading "Ablations";
  subheading
    "strict Figure-9 candidate search vs subset-aware search (tumbling \
     RandomGen sets, eta = 100)";
  let sets =
    Set_gen.batch Set_gen.random ~seed:(!seed + 8) cfg_tumbling ~n:5 ~count:10
  in
  let rows =
    List.mapi
      (fun i ws ->
        let strict =
          A2.run ~eta:100 ~strict_figure9:true Coverage.Partitioned_by ws
        in
        let grouped = A2.run ~eta:100 Coverage.Partitioned_by ws in
        let alg1 = A1.run ~eta:100 Coverage.Partitioned_by ws in
        [
          Printf.sprintf "set%02d" (i + 1);
          string_of_int alg1.A1.total;
          string_of_int strict.A1.total;
          string_of_int grouped.A1.total;
        ])
      sets
  in
  print_endline
    (Report.table ~header:[ "set"; "alg1"; "alg2-strict"; "alg2-grouped" ] rows);
  subheading "Figure-9 edges vs dense factor edges";
  let rows =
    List.mapi
      (fun i ws ->
        let sparse = A2.run ~eta:100 Coverage.Partitioned_by ws in
        let dense =
          A2.run ~eta:100 ~dense_factor_edges:true Coverage.Partitioned_by ws
        in
        [
          Printf.sprintf "set%02d" (i + 1);
          string_of_int sparse.A1.total;
          string_of_int dense.A1.total;
        ])
      sets
  in
  print_endline (Report.table ~header:[ "set"; "figure-9"; "dense" ] rows);
  subheading
    "exhaustive factor search on tiny sets (upper bound on Algorithm 2's gap)";
  (* Brute force: try every single tumbling factor window up to the max
     range and re-run Algorithm 1; the Steiner-tree optimum over one
     added vertex.  Algorithm 2 may add several, so it can win, too. *)
  let tiny_sets =
    Set_gen.batch Set_gen.random ~seed:(!seed + 9) cfg_tumbling ~n:3 ~count:8
  in
  let rows =
    List.mapi
      (fun i ws ->
        let env = Cost_model.make_env ~eta:100 ws in
        let alg2 = A2.best_of ~eta:100 Coverage.Partitioned_by ws in
        let r_max = List.fold_left (fun m w -> max m (Window.range w)) 0 ws in
        let best_single = ref (A1.run ~eta:100 Coverage.Partitioned_by ws) in
        for r_f = 1 to r_max do
          let f = Window.tumbling r_f in
          if
            env.Cost_model.period mod r_f = 0
            && not (List.exists (Window.equal f) ws)
          then begin
            let g = Fw_wcg.Graph.of_windows Coverage.Partitioned_by ws in
            let g = Fw_wcg.Graph.add_node g f Fw_wcg.Graph.Factor in
            let g = Fw_wcg.Graph.connect_coverage g f in
            let r = A1.run_graph env g in
            let r =
              if Fw_wcg.Graph.out_neighbors r.A1.graph f = [] then
                A1.run ~eta:100 Coverage.Partitioned_by ws
              else r
            in
            if r.A1.total < !best_single.A1.total then best_single := r
          end
        done;
        [
          Printf.sprintf "set%02d" (i + 1);
          string_of_int alg2.A1.total;
          string_of_int !best_single.A1.total;
        ])
      tiny_sets
  in
  print_endline
    (Report.table ~header:[ "set"; "alg2 (best-of)"; "best single factor" ] rows)

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock timing of the optimizer and the engine.        *)
(* ------------------------------------------------------------------ *)

let run_bechamel tests =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"bench" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (e :: _) -> Printf.sprintf "%.0f" e
          | Some [] | None -> "n/a"
        in
        [ name; ns ] :: acc)
      results []
  in
  print_endline
    (Report.table ~header:[ "benchmark"; "ns/run" ]
       (List.sort compare rows))

let section_timing () =
  heading "Optimizer and engine wall-clock timing (Bechamel)";
  let prng = Fw_util.Prng.create (!seed + 10) in
  let ws5 = Set_gen.random prng cfg_general ~n:5 in
  let ws10 = Set_gen.random prng cfg_general ~n:10 in
  let events =
    Event_gen.steady (Fw_util.Prng.create (!seed + 11))
      Event_gen.default_config ~eta:4 ~horizon:240
  in
  let outcome = Optimizer.optimize Aggregate.Min (List.map Window.tumbling [ 10; 20; 30; 40 ]) in
  let open Bechamel in
  run_bechamel
    [
      Test.make ~name:"alg1 |W|=5"
        (Staged.stage (fun () ->
             ignore (A1.run Coverage.Covered_by ws5)));
      Test.make ~name:"alg1 |W|=10"
        (Staged.stage (fun () ->
             ignore (A1.run Coverage.Covered_by ws10)));
      Test.make ~name:"alg2 |W|=5"
        (Staged.stage (fun () ->
             ignore (A2.best_of Coverage.Covered_by ws5)));
      Test.make ~name:"alg2 |W|=10"
        (Staged.stage (fun () ->
             ignore (A2.best_of Coverage.Covered_by ws10)));
      Test.make ~name:"engine naive (240 ticks)"
        (Staged.stage (fun () ->
             ignore
               (Fw_engine.Stream_exec.run
                  (Optimizer.naive_plan outcome)
                  ~horizon:240 events)));
      Test.make ~name:"engine rewritten (240 ticks)"
        (Staged.stage (fun () ->
             ignore
               (Fw_engine.Stream_exec.run
                  (Optimizer.optimized_plan outcome)
                  ~horizon:240 events)));
      Test.make ~name:"sql compile (fig 1a)"
        (Staged.stage (fun () ->
             ignore
               (Fw_sql.Compile.compile
                  "SELECT MIN(t) FROM s GROUP BY \
                   WINDOWS(WINDOW(TUMBLINGWINDOW(minute, 10)), \
                   WINDOW(TUMBLINGWINDOW(minute, 20)), \
                   WINDOW(TUMBLINGWINDOW(minute, 30)), \
                   WINDOW(TUMBLINGWINDOW(minute, 40)))")));
    ]

(* ------------------------------------------------------------------ *)
(* BENCH_*.json: the engine-stack sections (engine, obs, snap, serve,  *)
(* spill) write one file shape through one writer, and each gates its  *)
(* own figures through one check mechanism.                            *)
(* ------------------------------------------------------------------ *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* The top-level object, and every list holding objects or lists, break
   one item per line; everything else prints inline.  Non-finite floats
   have no JSON literal and print as null. *)
let rec add_json b ~indent v =
  let items opening closing ~break l =
    Buffer.add_string b opening;
    let inner = if break then indent + 2 else indent in
    List.iteri
      (fun i (prefix, v) ->
        if i > 0 then Buffer.add_char b ',';
        if break then Printf.bprintf b "\n%*s" inner ""
        else if i > 0 then Buffer.add_char b ' ';
        Buffer.add_string b prefix;
        add_json b ~indent:inner v)
      l;
    if break && l <> [] then Printf.bprintf b "\n%*s" indent "";
    Buffer.add_string b closing
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f when Float.is_finite f -> Printf.bprintf b "%.3f" f
  | Float _ -> Buffer.add_string b "null"
  | Str s -> Buffer.add_string b (Fw_obs.Export.json_string s)
  | List l ->
      items "[" "]"
        ~break:(List.exists (function List _ | Obj _ -> true | _ -> false) l)
        (List.map (fun v -> ("", v)) l)
  | Obj kvs ->
      items "{" "}" ~break:(indent = 0)
        (List.map (fun (k, v) -> (Fw_obs.Export.json_string k ^ ": ", v)) kvs)

let json_to_string v =
  let b = Buffer.create 1024 in
  add_json b ~indent:0 v;
  Buffer.contents b

(* One pass/fail condition of a section's gate. *)
type check = { name : string; value : json; op : string; limit : json; ok : bool }

let at_least name v limit =
  { name; value = Float v; op = ">="; limit = Float limit; ok = v >= limit }

let above name v limit =
  { name; value = Float v; op = ">"; limit = Float limit; ok = v > limit }

let at_most name v limit =
  { name; value = Float v; op = "<="; limit = Float limit; ok = v <= limit }

let holds name ok = { name; value = Bool ok; op = "="; limit = Bool true; ok }

(* Set when any section's gate fails; the harness exits 1 once every
   requested section has run. *)
let gate_failed = ref false

let commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = In_channel.input_line ic in
       match (Unix.close_process_in ic, line) with
       | Unix.WEXITED 0, Some c -> Str c
       | _ -> Null
     with Unix.Unix_error _ | Sys_error _ -> Null)

(* Print the section's checks, then write BENCH_<section>.json.
   [layers] uses the per-layer metric names of fwbench
   (BENCHMARK.json [per_layer]); [events_per_s] is the section's
   headline end-to-end figure. *)
let write_bench section ~workload ~events_per_s ~layers ~results checks =
  let pass = List.for_all (fun c -> c.ok) checks in
  List.iter
    (fun c ->
      Printf.printf "  gate %-36s %s %s %s  %s\n" c.name
        (json_to_string c.value) c.op (json_to_string c.limit)
        (if c.ok then "ok" else "FAIL"))
    checks;
  if not pass then gate_failed := true;
  let check_json c =
    Obj [ ("name", Str c.name); ("value", c.value); ("op", Str c.op);
          ("limit", c.limit); ("ok", Bool c.ok) ]
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let doc =
    Obj
      [ ("section", Str section); ("cores", Int (Domain.recommended_domain_count ()));
        ("ocaml", Str Sys.ocaml_version); ("commit", Lazy.force commit);
        ("seed", Int !seed); ("args", List (List.map (fun a -> Str a) args));
        ("workload", Obj workload);
        ("end_to_end", Obj [ ("events_per_s", Float events_per_s) ]);
        ("layers", Obj layers); ("results", List results);
        ("gate", Obj [ ("pass", Bool pass); ("checks", List (List.map check_json checks)) ]) ]
  in
  let file = Printf.sprintf "BENCH_%s.json" section in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (json_to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s (gate %s)\n" file (if pass then "PASS" else "FAIL")

(* --- measurement helpers shared by the engine-stack sections ------- *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* [timed] plus the run's allocation, as [Gc.quick_stat] deltas: words
   allocated on the minor heap and words promoted to the major heap. *)
let timed_gc f =
  let s0 = Gc.quick_stat () in
  let r, dt = timed f in
  let s1 = Gc.quick_stat () in
  ( r,
    dt,
    s1.Gc.minor_words -. s0.Gc.minor_words,
    s1.Gc.promoted_words -. s0.Gc.promoted_words )

let best_of n f =
  let rec go best n =
    if n = 0 then best else go (Float.min best (snd (timed f))) (n - 1)
  in
  go infinity n

(* Warm up both variants, then interleave [repeats] runs of each so
   drift hits both equally, and keep the per-variant minima: external
   interference only ever adds time, so the minimum is the low-noise
   estimate of each variant's true cost (run-to-run medians wobble
   several percent on a shared machine, more than the effects
   measured). *)
let interleaved ~repeats a b =
  ignore (a ());
  ignore (b ());
  let rec go n best_a best_b =
    if n = 0 then (best_a, best_b)
    else
      let ta = snd (timed a) in
      let tb = snd (timed b) in
      go (n - 1) (Float.min best_a ta) (Float.min best_b tb)
  in
  go repeats infinity infinity

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

let quantile h p = Option.value ~default:0 (Fw_obs.Histogram.quantile h p)

let per_s n dt = float_of_int n /. dt

(* The engine-stack input: a steady stream of about [n] events at
   eta = 4 per tick.  Returns the events, their count and the horizon. *)
let bench_eta = 4

let steady_stream ?(config = Event_gen.default_config) ~salt n =
  let horizon = max 1 (n / bench_eta) in
  let events =
    Event_gen.steady
      (Fw_util.Prng.create (!seed + salt))
      config ~eta:bench_eta ~horizon
  in
  (events, List.length events, horizon)

let stream_workload ~n_events ~horizon ~windows ~aggregate =
  [ ("events", Int n_events); ("eta", Int bench_eta); ("horizon", Int horizon);
    ("windows", windows); ("aggregate", aggregate) ]

(* ------------------------------------------------------------------ *)
(* Engine throughput: naive per-instance vs incremental pane mode,     *)
(* per-event vs batched feed.                                          *)
(* ------------------------------------------------------------------ *)

let engine_window_sets =
  [
    (* The acceptance workload: 10 overlapping windows with r/s = 50 —
       each event lands in 500 pending instances under the naive
       executor but in exactly one open pane under the incremental
       one. *)
    ( "rs50x10",
      List.init 10 (fun i ->
          Window.make ~range:(50 * (i + 1)) ~slide:(i + 1)) );
    ("tumbling4", List.map Window.tumbling [ 10; 20; 30; 40 ]);
    ( "hopping4",
      [
        Window.make ~range:10 ~slide:2;
        Window.make ~range:12 ~slide:4;
        Window.make ~range:8 ~slide:2;
        Window.make ~range:30 ~slide:3;
      ] );
    (* Count-domain mirror of hopping4: same geometry but on the
       per-key ordinal axis, exercising the count-window operator in
       both modes (incremental mode reports it as a fallback). *)
    ( "count4",
      [
        Window.count_hop ~range:10 ~slide:2;
        Window.count_hop ~range:12 ~slide:4;
        Window.count_hop ~range:8 ~slide:2;
        Window.count_hop ~range:30 ~slide:3;
      ] );
    (* Session windows: the per-key gap-tracking fallback operator. *)
    ("session2", [ Window.session ~gap:3; Window.session ~gap:11 ]);
  ]

let engine_aggregates =
  Aggregate.[ Sum; Min; Max; Avg; Stdev ]

(* The columnar mirror of [Stream_exec.run]: sort, clip, chunk into
   fixed-size batches, push through [feed_batch], close.  Same feed
   order as the per-event path, so rows must be byte-identical.
   Returns the rows and the seconds [close] took. *)
let engine_batch_size = 1024

let run_batched ?mode plan ~batch ~horizon events =
  let exec = Fw_engine.Stream_exec.create ?mode plan in
  let b = Fw_engine.Batch.create () in
  List.iter
    (fun e ->
      if e.Fw_engine.Event.time < horizon then begin
        Fw_engine.Batch.push b e;
        if Fw_engine.Batch.length b >= batch then begin
          Fw_engine.Stream_exec.feed_batch exec b;
          Fw_engine.Batch.reset b
        end
      end)
    (Fw_engine.Event.sort events);
  if not (Fw_engine.Batch.is_empty b) then
    Fw_engine.Stream_exec.feed_batch exec b;
  timed (fun () -> Fw_engine.Stream_exec.close exec ~horizon)

(* The batched-throughput guard: per-event vs batched feed on a
   key-heavy stream (64 keys, rs50x10, SUM, naive plan), best of 3 per
   measurement.  A regression of [feed_batch] to per-event dispatch
   shows up here as a batched/per-event ratio well under 1; the gate
   holds the ratio at >= 0.85 in both modes (the floor absorbs
   shared-runner noise; a real regression to per-event dispatch costs
   far more than 15%) and requires the batched rows to be identical.
   Returns the two result rows and their checks. *)
let batched_guard () =
  let events, n_events, horizon =
    steady_stream ~salt:17
      ~config:
        { Event_gen.default_config with Event_gen.keys = Event_gen.key_pool 64 }
      !engine_events
  in
  let plan =
    Fw_plan.Plan.naive Aggregate.Sum (List.assoc "rs50x10" engine_window_sets)
  in
  subheading
    "batched-throughput guard: %d events, 64 keys, rs50x10 SUM, batch=%d"
    n_events engine_batch_size;
  let pair mode name =
    let per_event () = Fw_engine.Stream_exec.run ~mode plan ~horizon events in
    let batched () =
      fst (run_batched ~mode plan ~batch:engine_batch_size ~horizon events)
    in
    let identical = batched () = per_event () in
    let per_dt = best_of 3 per_event and b_dt = best_of 3 batched in
    Printf.printf "%-12s per-event %.0f ev/s, batched %.0f ev/s (x%.2f) %s\n"
      name (per_s n_events per_dt) (per_s n_events b_dt) (per_dt /. b_dt)
      (if identical then "" else "ROWS DIVERGED");
    ( Obj
        [ ("guard", Str name); ("keys", Int 64); ("window_set", Str "rs50x10");
          ("aggregate", Str "SUM");
          ("per_event_events_per_sec", Float (per_s n_events per_dt));
          ("batched_events_per_sec", Float (per_s n_events b_dt));
          ("batch_speedup", Float (per_dt /. b_dt)); ("rows_identical", Bool identical) ],
      [
        at_least (Printf.sprintf "guard.%s.batch_speedup" name) (per_dt /. b_dt)
          0.85;
        holds (Printf.sprintf "guard.%s.rows_identical" name) identical;
      ] )
  in
  let naive = pair Fw_engine.Stream_exec.Naive "naive" in
  let incremental = pair Fw_engine.Stream_exec.Incremental "incremental" in
  ([ fst naive; fst incremental ], snd naive @ snd incremental)

let section_engine () =
  heading "Engine throughput: naive vs incremental, per-event vs batched";
  let events, n_events, horizon = steady_stream ~salt:12 !engine_events in
  Printf.printf
    "%d events (eta=%d, horizon=%d ticks), %d window sets, batch=%d\n"
    n_events bench_eta horizon
    (List.length engine_window_sets)
    engine_batch_size;
  let rate = per_s n_events in
  let results =
    List.concat_map
      (fun (set_name, ws) ->
        List.map
          (fun agg ->
            let plan = Fw_plan.Plan.naive agg ws in
            let naive_rows, naive_dt =
              timed (fun () ->
                  Fw_engine.Stream_exec.run plan ~horizon events)
            in
            let (naive_brows, _), naive_bdt, naive_bminor, naive_bpromo =
              timed_gc (fun () ->
                  run_batched plan ~batch:engine_batch_size ~horizon events)
            in
            let inc_rows, inc_dt =
              timed (fun () ->
                  Fw_engine.Stream_exec.run
                    ~mode:Fw_engine.Stream_exec.Incremental plan ~horizon
                    events)
            in
            let (inc_brows, inc_close), inc_bdt =
              timed (fun () ->
                  run_batched ~mode:Fw_engine.Stream_exec.Incremental plan
                    ~batch:engine_batch_size ~horizon events)
            in
            let rows_match =
              Fw_engine.Row.equal_sets naive_rows inc_rows
              (* batched vs per-event is the stricter contract:
                 byte-identical, not just equal within tolerance *)
              && naive_brows = naive_rows
              && inc_brows = inc_rows
            in
            (* The optimizer's rewritten plan, batched in both modes:
               information only, with no gate while window-fed nodes
               run the per-instance fallback in Incremental mode. *)
            let rewritten =
              (Fw_plan.Rewrite.optimize ~eta:bench_eta agg ws).Fw_plan.Rewrite.plan
            in
            let (rw_naive_rows, _), rw_naive_dt, rw_naive_minor, rw_naive_promo =
              timed_gc (fun () ->
                  run_batched rewritten ~batch:engine_batch_size ~horizon events)
            in
            let (rw_inc_rows, rw_inc_close), rw_inc_dt, rw_inc_minor, rw_inc_promo =
              timed_gc (fun () ->
                  run_batched ~mode:Fw_engine.Stream_exec.Incremental rewritten
                    ~batch:engine_batch_size ~horizon events)
            in
            let per_ev w = w /. float_of_int n_events in
            let rw_rows_match =
              Fw_engine.Row.equal_sets naive_rows rw_naive_rows
              && Fw_engine.Row.equal_sets naive_rows rw_inc_rows
            in
            let agg = Aggregate.to_string agg in
            ( [ set_name; agg; Printf.sprintf "%.0f" (rate naive_dt);
                Printf.sprintf "%.0f" (rate naive_bdt); Printf.sprintf "%.0f" (rate inc_dt);
                Printf.sprintf "%.0f" (rate inc_bdt); Printf.sprintf "x%.1f" (naive_dt /. inc_dt);
                Printf.sprintf "x%.2f" (inc_dt /. inc_bdt); (if rows_match then "yes" else "NO");
                Printf.sprintf "%.0f" (rate rw_naive_dt); Printf.sprintf "%.0f" (rate rw_inc_dt);
                (if rw_rows_match then "yes" else "NO");
                Printf.sprintf "%.1f" (per_ev naive_bpromo);
                Printf.sprintf "%.1f" (per_ev rw_naive_promo);
                Printf.sprintf "%.2f" (1e3 *. inc_close);
                Printf.sprintf "%.2f" (1e3 *. rw_inc_close) ],
              Obj
                [ ("window_set", Str set_name);
                  ("windows", Str (String.concat " " (List.map Window.to_string ws)));
                  ("aggregate", Str agg);
                  ("naive_events_per_sec", Float (rate naive_dt));
                  ("naive_batched_events_per_sec", Float (rate naive_bdt));
                  ("incremental_events_per_sec", Float (rate inc_dt));
                  ("incremental_batched_events_per_sec", Float (rate inc_bdt));
                  ("speedup", Float (naive_dt /. inc_dt));
                  ("batch_speedup_naive", Float (naive_dt /. naive_bdt));
                  ("batch_speedup_incremental", Float (inc_dt /. inc_bdt));
                  ("rows_match", Bool rows_match);
                  ("rewritten_naive_batched_events_per_sec", Float (rate rw_naive_dt));
                  ("rewritten_incremental_batched_events_per_sec", Float (rate rw_inc_dt));
                  ("rewritten_rows_match", Bool rw_rows_match);
                  ("naive_batched_minor_words_per_event", Float (per_ev naive_bminor));
                  ("naive_batched_promoted_words_per_event", Float (per_ev naive_bpromo));
                  ("rewritten_naive_batched_minor_words_per_event", Float (per_ev rw_naive_minor));
                  ("rewritten_naive_batched_promoted_words_per_event",
                   Float (per_ev rw_naive_promo));
                  ("rewritten_incremental_batched_minor_words_per_event",
                   Float (per_ev rw_inc_minor));
                  ("rewritten_incremental_batched_promoted_words_per_event",
                   Float (per_ev rw_inc_promo));
                  (* [close] of the incremental batched runs, whose
                     times above include it *)
                  ("close_ms", Float (1e3 *. inc_close));
                  ("rewritten_close_ms", Float (1e3 *. rw_inc_close)) ],
              rows_match,
              (* the headline: rs50x10 SUM, incremental, batched *)
              if set_name = "rs50x10" && agg = "SUM" then
                Some (rate inc_bdt, 1e3 *. inc_close)
              else None ))
          engine_aggregates)
      engine_window_sets
  in
  print_endline
    (Report.table
       ~header:
         [
           "window set";
           "agg";
           "naive ev/s";
           "naive-B ev/s";
           "incr ev/s";
           "incr-B ev/s";
           "incr/naive";
           "batch gain";
           "rows =";
           "rw naive-B";
           "rw incr-B";
           "rw rows =";
           "naive-B promo w/ev";
           "rw naive-B promo w/ev";
           "incr-B close ms";
           "rw incr-B close ms";
         ]
       (List.map (fun (row, _, _, _) -> row) results));
  let guard_rows, guard_checks = batched_guard () in
  let matched = List.filter (fun (_, _, ok, _) -> ok) results in
  let headline = List.find_map (fun (_, _, _, h) -> h) results in
  write_bench "engine"
    ~workload:
      (stream_workload ~n_events ~horizon
         ~windows:(List (List.map (fun (n, _) -> Str n) engine_window_sets))
         ~aggregate:
           (List (List.map (fun a -> Str (Aggregate.to_string a)) engine_aggregates))
      @ [ ("batch", Int engine_batch_size) ])
    ~events_per_s:(Option.fold ~none:nan ~some:fst headline)
    ~layers:
      [ ("engine.close_ms", Float (Option.fold ~none:nan ~some:snd headline)) ]
    ~results:(List.map (fun (_, json, _, _) -> json) results @ guard_rows)
    (* every (set, aggregate) pair: naive and incremental rows agree,
       and batched rows are byte-identical to per-event rows *)
    ({ name = "results.rows_match"; value = Int (List.length matched); op = "=";
       limit = Int (List.length results); ok = List.length matched = List.length results }
    :: guard_checks)

(* ------------------------------------------------------------------ *)
(* Observability overhead: the instrumented incremental engine vs the  *)
(* same engine with ~observe:false, on the acceptance workload.        *)
(* ------------------------------------------------------------------ *)

let section_obs () =
  heading "Observability overhead: incremental engine, rs50x10, SUM";
  let events, n_events, horizon = steady_stream ~salt:12 !engine_events in
  let ws = List.assoc "rs50x10" engine_window_sets in
  let plan = Fw_plan.Plan.naive Aggregate.Sum ws in
  let run ~observe () =
    ignore
      (Fw_engine.Stream_exec.run ~mode:Fw_engine.Stream_exec.Incremental
         ~observe plan ~horizon events)
  in
  let repeats = 9 in
  let plain_dt, obs_dt =
    interleaved ~repeats (run ~observe:false) (run ~observe:true)
  in
  let overhead_pct = (obs_dt -. plain_dt) /. plain_dt *. 100.0 in
  let rate = per_s n_events in
  (* Scrape overhead: the same observed run, but with a live /metrics
     server over its registry and a self-scraper domain issuing real
     HTTP GETs.  A 1 Hz scraper's steady-state cost is (marginal cost
     of one scrape) / (1 s period), so that is what we measure: quiet
     runs and runs carrying exactly one concurrent scrape are
     interleaved against the same served registry, the per-variant
     minima are differenced to get the marginal cost of a scrape, and
     the gate normalizes it to the 1 s period.  (Timing a literal
     wall-clock 1 Hz poller instead would make the result depend on
     how the run length divides 1 s — a 15 ms CI run would see either
     0 scrapes or an effective 60 Hz.)  The scraper parks on a
     condition variable between scrapes, so quiet runs carry no
     wakeup interference — this matters on single-core runners where
     every scraper wakeup preempts the engine. *)
  let metrics_srv = Fw_engine.Metrics.create () in
  let reg = Fw_engine.Metrics.registry metrics_srv in
  let meter = Fw_obs.Meter.create reg in
  let server = Fw_obs.Scrape.start ~meter ~port:0 reg in
  let port = Fw_obs.Scrape.port server in
  let mu = Mutex.create () and cv = Condition.create () in
  let state = ref `Idle (* `Idle | `Scrape | `Done *) in
  let scrapes = Atomic.make 0 in
  let scraper =
    Domain.spawn (fun () ->
        let get () =
          let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
          let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () ->
              try Unix.close sock with Unix.Unix_error _ -> ())
            (fun () ->
              Unix.connect sock addr;
              let req =
                "GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: \
                 close\r\n\r\n"
              in
              ignore (Unix.write_substring sock req 0 (String.length req));
              let chunk = Bytes.create 4096 in
              let rec drain n =
                match Unix.read sock chunk 0 4096 with
                | 0 -> n
                | k -> drain (n + k)
              in
              drain 0)
        in
        let rec loop () =
          Mutex.lock mu;
          while !state = `Idle do
            Condition.wait cv mu
          done;
          let s = !state in
          Mutex.unlock mu;
          match s with
          | `Done -> ()
          | _ ->
              (try
                 ignore (get ());
                 Atomic.incr scrapes
               with _ -> ());
              Mutex.lock mu;
              if !state = `Scrape then state := `Idle;
              Condition.broadcast cv;
              Mutex.unlock mu;
              loop ()
        in
        loop ())
  in
  let signal s =
    Mutex.lock mu;
    state := s;
    Condition.broadcast cv;
    Mutex.unlock mu
  in
  let await_idle () =
    Mutex.lock mu;
    while !state <> `Idle do
      Condition.wait cv mu
    done;
    Mutex.unlock mu
  in
  let run_srv () =
    ignore
      (Fw_engine.Stream_exec.run ~metrics:metrics_srv
         ~mode:Fw_engine.Stream_exec.Incremental plan ~horizon events)
  in
  (* One scrape in flight concurrently with the run; wait for it to
     land before stopping the clock so its full cost is captured even
     when the run is shorter than the scrape. *)
  let scraped_run () =
    signal `Scrape;
    run_srv ();
    await_idle ()
  in
  let quiet_dt, scraped_dt = interleaved ~repeats run_srv scraped_run in
  signal `Done;
  Domain.join scraper;
  Fw_obs.Scrape.stop server;
  let scrape_cost = Float.max 0.0 (scraped_dt -. quiet_dt) in
  let scrape_overhead_pct = scrape_cost /. 1.0 *. 100.0 in
  Printf.printf
    "%d events (eta=%d, horizon=%d), %d interleaved repeats, best times\n"
    n_events bench_eta horizon repeats;
  Printf.printf "  observe:false  %.1f ev/s\n" (rate plain_dt);
  Printf.printf "  observe:true   %.1f ev/s\n" (rate obs_dt);
  Printf.printf "  overhead       %.2f%% (design target < 3%%)\n" overhead_pct;
  Printf.printf "  observe:true + live /metrics server  %.1f ev/s\n"
    (rate quiet_dt);
  Printf.printf "  + one concurrent HTTP scrape         %.1f ev/s\n"
    (rate scraped_dt);
  Printf.printf "  marginal scrape cost  %.2fms (%d scrapes served)\n"
    (scrape_cost *. 1e3) (Atomic.get scrapes);
  (* One instrumented run with a registry, to export a sample latency
     histogram alongside the overhead numbers. *)
  let metrics = Fw_engine.Metrics.create () in
  ignore
    (Fw_engine.Stream_exec.run ~metrics
       ~mode:Fw_engine.Stream_exec.Incremental plan ~horizon events);
  let histograms =
    List.filter_map
      (fun (e : Fw_obs.Registry.entry) ->
        match e.Fw_obs.Registry.metric with
        | Fw_obs.Registry.Histogram h when Fw_obs.Histogram.count h > 0 ->
            Some (e, h)
        | _ -> None)
      (Fw_obs.Registry.entries (Fw_engine.Metrics.registry metrics))
  in
  let sample = match histograms with s :: _ -> Some s | [] -> None in
  (match sample with
  | Some (e, h) ->
      Printf.printf "  sample histogram %s%s: %s\n" e.Fw_obs.Registry.name
        (match e.Fw_obs.Registry.labels with
        | [] -> ""
        | ls ->
            "{"
            ^ String.concat ","
                (List.map (fun (k, v) -> k ^ "=" ^ v) ls)
            ^ "}")
        (Format.asprintf "%a" Fw_obs.Histogram.pp h)
  | None -> print_endline "  (no non-empty latency histogram recorded)");
  (* Merge the per-node fire-latency histograms (exact bucket-wise
     merge) so the tail gate below sees the whole plan, not one node. *)
  let fire_merged =
    match
      List.filter_map
        (fun ((e : Fw_obs.Registry.entry), h) ->
          if e.Fw_obs.Registry.name = "node_fire_ns" then Some h else None)
        histograms
    with
    | [] -> None
    | h :: tl -> Some (List.fold_left Fw_obs.Histogram.merged h tl)
  in
  (match fire_merged with
  | Some h ->
      Printf.printf
        "  merged node_fire_ns: count=%d p50=%dns p99=%dns p99.9=%dns\n"
        (Fw_obs.Histogram.count h) (quantile h 0.5) (quantile h 0.99)
        (quantile h 0.999)
  | None -> print_endline "  (no node_fire_ns samples recorded)");
  let histogram_row name h =
    Obj [ ("histogram", Str name); ("count", Int (Fw_obs.Histogram.count h));
          ("p50_ns", Int (quantile h 0.5)); ("p99_ns", Int (quantile h 0.99));
          ("p999_ns", Int (quantile h 0.999)) ]
  in
  let fire_us p =
    match fire_merged with
    | Some h -> Float (float_of_int (quantile h p) /. 1e3)
    | None -> Null
  in
  let run_row name dt = Obj [ ("run", Str name); ("events_per_sec", Float (rate dt)) ] in
  write_bench "obs"
    ~workload:
      (stream_workload ~n_events ~horizon ~windows:(Str "rs50x10")
         ~aggregate:(Str "SUM")
      @ [ ("repeats", Int repeats) ])
    ~events_per_s:(rate obs_dt)
    ~layers:[ ("engine.fire_us_p50", fire_us 0.5); ("engine.fire_us_p99", fire_us 0.99) ]
    ~results:
      ([
         run_row "plain" plain_dt;
         run_row "observed" obs_dt;
         run_row "served" quiet_dt;
         run_row "scraped" scraped_dt;
         Obj [ ("scrape_cost_ms", Float (scrape_cost *. 1e3));
               ("scrapes_during_timed_runs", Int (Atomic.get scrapes)) ];
       ]
      @ List.filter_map Fun.id
          [
            Option.map (histogram_row "node_fire_ns") fire_merged;
            Option.map (fun (e, h) -> histogram_row e.Fw_obs.Registry.name h) sample;
          ])
    [
      (* design target < 3% on quiet hardware; shared CI runners are
         noisy, so the gate fails only beyond 10% *)
      at_most "overhead_pct" overhead_pct 10.0;
      (* the steady-state cost of a 1 Hz scraper *)
      at_most "scrape_overhead_pct" scrape_overhead_pct 1.0;
      (* the histogram's tail resolution: with 4-way sub-buckets a
         single > 5 ms estimate means real multi-ms stalls, not bucket
         smear; no samples at all reads as infinity and fails *)
      at_most "node_fire_ns.p999"
        (match fire_merged with
        | Some h -> float_of_int (quantile h 0.999)
        | None -> infinity)
        5e6;
    ]

(* ------------------------------------------------------------------ *)
(* Checkpointing overhead: the durable pipeline vs the bare engine,    *)
(* snapshot sizes, pause times, and a timed crash/recovery round trip. *)
(* ------------------------------------------------------------------ *)

let section_snap () =
  heading "Checkpointing overhead: incremental engine, rs50x10, SUM";
  let events, n_events, horizon = steady_stream ~salt:12 !engine_events in
  (* feed the same order Stream_exec.run would: same-timestamp events
     must fold in the same order for bit-identical float sums *)
  let sorted_events = Fw_engine.Event.sort events in
  let ws = List.assoc "rs50x10" engine_window_sets in
  let plan = Fw_plan.Plan.naive Aggregate.Sum ws in
  let every = max 1 (n_events / 5) in
  let mode = Fw_engine.Stream_exec.Incremental in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fw_bench_snap" in
  let clear_dir () =
    if Sys.file_exists dir then
      Array.iter
        (fun f ->
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)
  in
  (* [Checkpoint.feed] appends and flushes the WAL once per event: the
     per-event price of durability *)
  let feed_all cp =
    List.iter
      (fun e ->
        if e.Fw_engine.Event.time < horizon then Fw_snap.Checkpoint.feed cp e)
      sorted_events
  in
  let plain_rows = ref [] in
  let run_plain () =
    plain_rows := Fw_engine.Stream_exec.run ~mode plan ~horizon events
  in
  let run_checkpointed () =
    clear_dir ();
    let cp = Fw_snap.Checkpoint.create ~dir ~every ~mode plan in
    feed_all cp;
    ignore (Fw_snap.Checkpoint.close cp ~horizon)
  in
  let repeats = 7 in
  let plain_dt, durable_dt =
    interleaved ~repeats run_plain run_checkpointed
  in
  let overhead_pct = (durable_dt -. plain_dt) /. plain_dt *. 100.0 in
  let rate = per_s n_events in
  Printf.printf
    "%d events (eta=%d, horizon=%d), snapshot every %d events, %d \
     interleaved repeats, best times\n"
    n_events bench_eta horizon every repeats;
  Printf.printf "  bare engine    %.1f ev/s\n" (rate plain_dt);
  Printf.printf "  checkpointed   %.1f ev/s\n" (rate durable_dt);
  Printf.printf
    "  durability price  %.2f%% extra wall time (WAL flush per event + \
     checkpoints, informational)\n"
    overhead_pct;
  (* one instrumented run for snapshot sizes and pause quantiles; also
     timed, to express the checkpoint pauses as a fraction of the wall
     time — that fraction is the gated number: the WAL flush is the
     per-event price of durability, the pause is what snapshotting
     itself steals from the pipeline *)
  clear_dir ();
  let metrics = Fw_engine.Metrics.create () in
  let cp = Fw_snap.Checkpoint.create ~dir ~every ~metrics ~mode plan in
  let (), instr_dt =
    timed (fun () ->
        feed_all cp;
        ignore (Fw_snap.Checkpoint.close cp ~horizon))
  in
  let registry = Fw_engine.Metrics.registry metrics in
  let hist name =
    match Fw_obs.Registry.find registry name with
    | Some (Fw_obs.Registry.Histogram h) -> Some h
    | _ -> None
  in
  let checkpoints =
    Option.value ~default:0
      (Fw_obs.Registry.counter_value registry "snap_checkpoints_total")
  in
  let bytes_h = hist "snap_checkpoint_bytes" in
  let pause_h = hist "snap_checkpoint_pause_ns" in
  let pause_total_pct =
    match pause_h with
    | Some p ->
        float_of_int (Fw_obs.Histogram.sum p) /. (instr_dt *. 1e9) *. 100.0
    | None -> 0.0
  in
  (match (bytes_h, pause_h) with
  | Some b, Some p ->
      Printf.printf
        "  %d snapshots: %d..%d bytes (p50 %d); pause p50 %.1f us, p99 %.1f \
         us\n"
        checkpoints
        (Option.value ~default:0 (Fw_obs.Histogram.min_value b))
        (Option.value ~default:0 (Fw_obs.Histogram.max_value b))
        (quantile b 0.5)
        (float_of_int (quantile p 0.5) /. 1e3)
        (float_of_int (quantile p 0.99) /. 1e3)
  | _ -> print_endline "  (no checkpoint metrics recorded)");
  Printf.printf "  checkpoint pause  %.2f%% of wall time (design target < 5%%)\n"
    pause_total_pct;
  (* timed crash/recovery round trip: kill the pipeline halfway
     through the stream, recover from disk, finish, compare *)
  clear_dir ();
  let cp = Fw_snap.Checkpoint.create ~dir ~every ~mode plan in
  let k = n_events / 2 in
  List.iteri
    (fun i e ->
      if i < k && e.Fw_engine.Event.time < horizon then
        Fw_snap.Checkpoint.feed cp e)
    sorted_events;
  (* abandoned, never closed: exactly what a dead process leaves *)
  let recovery =
    match timed (fun () -> Fw_snap.Recover.load ~dir ~every ~mode plan) with
    | Error m, _ ->
        Printf.printf "  RECOVERY FAILED: %s\n" m;
        None
    | Ok r, load_dt ->
        List.iteri
          (fun i e ->
            if i >= k && e.Fw_engine.Event.time < horizon then
              Fw_snap.Checkpoint.feed r.Fw_snap.Recover.checkpoint e)
          sorted_events;
        let rows =
          Fw_snap.Checkpoint.close r.Fw_snap.Recover.checkpoint ~horizon
        in
        let rows_match = rows = !plain_rows in
        Printf.printf
          "  recovery: snapshot %s, %d events replayed, load %.2f ms, rows \
           byte-identical: %s\n"
          (match r.Fw_snap.Recover.recovered_from with
          | Some g -> string_of_int g
          | None -> "none")
          r.Fw_snap.Recover.replayed_events (load_dt *. 1e3)
          (if rows_match then "yes" else "NO");
        Some (load_dt, r.Fw_snap.Recover.replayed_events, rows_match)
  in
  clear_dir ();
  let q h p = Option.map (fun h -> quantile h p) h in
  let int_or_null = function Some n -> Int n | None -> Null in
  let scaled s = function Some n -> Float (float_of_int n /. s) | None -> Null in
  write_bench "snap"
    ~workload:
      (stream_workload ~n_events ~horizon ~windows:(Str "rs50x10")
         ~aggregate:(Str "SUM")
      @ [ ("every", Int every); ("repeats", Int repeats) ])
    ~events_per_s:(rate durable_dt)
    ~layers:
      [ ("snap.pause_ms_p50", scaled 1e6 (q pause_h 0.5));
        ("snap.snapshot_kb", scaled 1024.0 (q bytes_h 0.5));
        ( "snap.recover_load_ms",
          match recovery with Some (dt, _, _) -> Float (dt *. 1e3) | None -> Null );
        ("snap.replayed_events", match recovery with Some (_, n, _) -> Int n | None -> Null) ]
    ~results:
      [ Obj [ ("run", Str "plain"); ("events_per_sec", Float (rate plain_dt)) ];
        Obj [ ("run", Str "checkpointed"); ("events_per_sec", Float (rate durable_dt));
              ("overhead_pct", Float overhead_pct) ];
        Obj [ ("checkpoints", Int checkpoints);
              ("snapshot_bytes_p50", int_or_null (q bytes_h 0.5));
              ("snapshot_bytes_max", int_or_null (Option.bind bytes_h Fw_obs.Histogram.max_value));
              ("pause_ns_p50", int_or_null (q pause_h 0.5));
              ("pause_ns_p99", int_or_null (q pause_h 0.99));
              ("pause_total_pct", Float pause_total_pct) ] ]
    [
      (* design target < 5% on quiet hardware; shared runners are
         noisy, so the gate fails only beyond 10% *)
      at_most "pause_total_pct" pause_total_pct 10.0;
      (* the crash/recovery round trip reproduces the uninterrupted
         rows exactly: no tolerance *)
      holds "recovery.rows_match"
        (match recovery with Some (_, _, m) -> m | None -> false);
    ]

(* ------------------------------------------------------------------ *)
(* Multi-query server: sustained ingest at 1/10/100 registered        *)
(* queries with cross-query sharing on vs off, and cold vs warm       *)
(* plan-cache registration latency.                                   *)
(* ------------------------------------------------------------------ *)

(* What polling every tap of a server after each ingest measured. *)
type serve_polls = {
  polls_us : float array;  (* one [Server.rows_csv] call each *)
  tap_csv_us : float array;
      (* the same tap positions rendered per poll, [rows_to_csv] of
         [rows_from]: the route before the group log *)
  csv_identical : bool;  (* every body = rows_to_csv of rows_from *)
  delivered : int;  (* serve_rows_total *)
  rendered : int;  (* serve_rows_rendered_total *)
}

let section_serve () =
  heading "Serve: multi-query ingest and plan-cache registration (Fw_serve)";
  let module Server = Fw_serve.Server in
  let fail_reject r = failwith (Server.reject_message r) in
  let events, n_events, horizon =
    steady_stream ~salt:23 (min !engine_events 8_000)
  in
  (* Prefix-closed tumbling chains over one aggregate: every query's
     optimized plan is a prefix of the longest chain, so the sharing
     planner merges the whole population into one engine — the overlap
     profile the factor-window rewrite is built for. *)
  let chain = [ 10; 20; 40; 80 ] in
  let chain_name = "T" ^ String.concat "/T" (List.map string_of_int chain) in
  let text k =
    let ws = List.filteri (fun i _ -> i < k) chain in
    Printf.sprintf "SELECT SUM(value) FROM input GROUP BY key, WINDOWS(%s)"
      (String.concat ", "
         (List.map
            (fun s -> Printf.sprintf "WINDOW(TUMBLINGWINDOW(second, %d))" s)
            ws))
  in
  (* the stream arrives in ingests of [ingest] events, as a client posts
     it; each run with [~poll] reads every tap from its cursor after
     every ingest and after close, as polling clients do *)
  let ingest = 1000 in
  let ingests =
    List.init
      ((n_events + ingest - 1) / ingest)
      (fun k -> List.filteri (fun i _ -> i / ingest = k) events)
  in
  Printf.printf
    "%d events in ingests of %d (eta=%d, horizon=%d ticks), chain %s, SUM\n"
    n_events ingest bench_eta horizon chain_name;
  let run ?(poll = false) ~sharing nq =
    let cfg =
      {
        Server.default_config with
        Server.eta = bench_eta;
        sharing;
        max_queries = nq + 8;
        tenant_quota = nq + 8;
        cache_capacity = 256;
      }
    in
    let server =
      match Server.create cfg with Ok s -> s | Error e -> failwith e
    in
    for i = 0 to nq - 1 do
      match
        Server.register server ~tenant:"bench"
          (text (1 + (i mod List.length chain)))
      with
      | Ok _ -> ()
      | Error r -> fail_reject r
    done;
    let groups = Server.group_count server in
    let ok = function Ok v -> v | Error r -> fail_reject r in
    let ids =
      Array.of_list
        (List.map (fun i -> i.Server.i_id) (Server.list_queries server))
    in
    let cursor = Array.make (Array.length ids) 0 in
    let poll_ns = ref [] and tap_ns = ref [] and identical = ref true in
    let poll_all () =
      Array.iteri
        (fun k id ->
          let from = cursor.(k) in
          let t0 = Fw_obs.Clock.now_ns () in
          let body = ok (Server.rows_csv server id ~from) in
          poll_ns := Fw_obs.Clock.elapsed_ns ~since:t0 :: !poll_ns;
          let t0 = Fw_obs.Clock.now_ns () in
          let rows = ok (Server.rows_from server id ~from) in
          let tap_csv = Fw_engine.Csv_io.rows_to_csv rows in
          tap_ns := Fw_obs.Clock.elapsed_ns ~since:t0 :: !tap_ns;
          if body <> tap_csv then identical := false;
          cursor.(k) <- from + List.length rows)
        ids
    in
    let dt =
      List.fold_left
        (fun dt chunk ->
          let _, d = timed (fun () -> ok (Server.feed server chunk)) in
          if poll then poll_all ();
          dt +. d)
        0.0 ingests
    in
    let (), d = timed (fun () -> ok (Server.close server ~horizon)) in
    if poll then poll_all ();
    let rows =
      List.fold_left
        (fun acc i -> acc + i.Server.i_rows)
        0 (Server.list_queries server)
    in
    let counter name =
      Option.value ~default:0
        (Fw_obs.Registry.counter_value (Server.registry server) name)
    in
    let us l = Array.of_list (List.map (fun ns -> float_of_int ns /. 1e3) l) in
    let polls =
      {
        polls_us = us !poll_ns;
        tap_csv_us = us !tap_ns;
        csv_identical = !identical;
        delivered = counter "serve_rows_total";
        rendered = counter "serve_rows_rendered_total";
      }
    in
    (per_s n_events (dt +. d), groups, rows, polls)
  in
  subheading "sustained ingest: shared vs unshared engines";
  let points =
    List.map
      (fun nq ->
        let u_eps, _, u_rows, _ = run ~sharing:false nq in
        let s_eps, s_groups, s_rows, _ = run ~sharing:true nq in
        let speedup = s_eps /. u_eps in
        Printf.printf
          "%4d queries  unshared (%d engines) %8.0f ev/s   shared (%d \
           engine%s) %8.0f ev/s   x%.2f %s\n"
          nq nq u_eps s_groups
          (if s_groups = 1 then "" else "s")
          s_eps speedup
          (if s_rows = u_rows then "" else "ROWS DIVERGED");
        (nq, u_eps, s_eps, s_groups, speedup, s_rows = u_rows))
      [ 1; 10; 100 ]
  in
  subheading "polled rows bodies: every tap of the shared 100-query server";
  let _, _, _, polls = run ~poll:true ~sharing:true 100 in
  let poll_med = median polls.polls_us
  and tap_med = median polls.tap_csv_us in
  Printf.printf
    "%d polls: rows_csv p50 %.1f us (rows_to_csv of rows_from %.1f us); %d \
     rows delivered, %d rendered (x%.1f render sharing)%s\n"
    (Array.length polls.polls_us) poll_med tap_med polls.delivered
    polls.rendered
    (float_of_int polls.delivered /. float_of_int (max 1 polls.rendered))
    (if polls.csv_identical then "" else "  BODIES DIFFER");
  (* Cold vs warm registration: distinct window chains so every cold
     registration really runs the optimizer; the warm pass re-registers
     the same canonical text and must come out of the plan cache.
     Sharing off so the measurement isolates compile-vs-cache, not the
     group replanner. *)
  subheading "registration latency: cold compile vs plan-cache hit";
  let n_reg = 32 in
  let reg_cfg =
    {
      Server.default_config with
      Server.sharing = false;
      max_queries = 4 * n_reg;
      tenant_quota = 4 * n_reg;
      cache_capacity = 4 * n_reg;
    }
  in
  let reg_server =
    match Server.create reg_cfg with Ok s -> s | Error e -> failwith e
  in
  let reg_text i =
    (* twelve-window sets so the cold path prices what it actually is —
       a full optimizer run — not just parser overhead *)
    let base = 5 + i in
    Printf.sprintf "SELECT SUM(value) FROM input GROUP BY key, WINDOWS(%s)"
      (String.concat ", "
         (List.map
            (fun k ->
              Printf.sprintf "WINDOW(TUMBLINGWINDOW(second, %d))" (k * base))
            [ 1; 2; 3; 4; 6; 8; 12; 16; 24; 32; 48; 96 ]))
  in
  let time_register text =
    match timed (fun () -> Server.register reg_server ~tenant:"bench" text) with
    | Ok r, dt -> (dt, r.Server.r_cached)
    | Error r, _ -> fail_reject r
  in
  let cold = Array.make n_reg 0.0 and warm = Array.make n_reg 0.0 in
  for i = 0 to n_reg - 1 do
    let dt, cached = time_register (reg_text i) in
    if cached then failwith "cold registration unexpectedly hit the cache";
    cold.(i) <- dt;
    let dt, cached = time_register (reg_text i) in
    if not cached then failwith "warm registration missed the cache";
    warm.(i) <- dt
  done;
  let cold_med = median cold and warm_med = median warm in
  let warm_speedup = cold_med /. warm_med in
  Printf.printf
    "%d registrations: cold p50 %.0f us, warm p50 %.0f us (x%.1f)\n" n_reg
    (cold_med *. 1e6) (warm_med *. 1e6) warm_speedup;
  let at_100 =
    List.find_opt (fun (nq, _, _, _, _, _) -> nq = 100) points
  in
  write_bench "serve"
    ~workload:
      (stream_workload ~n_events ~horizon ~windows:(Str chain_name)
         ~aggregate:(Str "SUM")
      @ [ ("queries", List (List.map (fun (nq, _, _, _, _, _) -> Int nq) points));
          ("ingest_events", Int ingest);
          ("registrations", Int n_reg) ])
    ~events_per_s:
      (match at_100 with Some (_, _, s, _, _, _) -> s | None -> nan)
    ~layers:
      [ ("serve.register_cold_us", Float (cold_med *. 1e6));
        ("serve.register_warm_us", Float (warm_med *. 1e6));
        ("serve.rows_csv_us", Float poll_med) ]
    ~results:
      (List.map
         (fun (nq, u, s, groups, sp, ok) ->
           Obj
             [ ("queries", Int nq); ("unshared_events_per_sec", Float u);
               ("shared_events_per_sec", Float s); ("shared_groups", Int groups);
               ("sharing_speedup", Float sp); ("rows_identical", Bool ok) ])
         points
      @ [ Obj
            [ ("queries", Int 100); ("polls", Int (Array.length polls.polls_us));
              ("rows_csv_us_p50", Float poll_med);
              ("tap_rows_to_csv_us_p50", Float tap_med);
              ("rows_delivered", Int polls.delivered);
              ("rows_rendered", Int polls.rendered);
              ("rows_csv_identical", Bool polls.csv_identical) ] ])
    [
      (* sharing must win at the 100-query overlap point *)
      above "sharing_speedup_at_100"
        (match at_100 with Some (_, _, _, _, sp, _) -> sp | None -> 0.0)
        1.0;
      (* a cache hit must be >= 5x faster than a cold compile *)
      at_least "warm_speedup" warm_speedup 5.0;
      holds "rows_identical"
        (List.for_all (fun (_, _, _, _, _, ok) -> ok) points);
      holds "rows_csv_identical" polls.csv_identical;
    ]

(* ------------------------------------------------------------------ *)
(* Out-of-core state: the spill store under a memory budget on a      *)
(* wide-key workload.  A budget curve at 10^5 distinct keys proves    *)
(* the budgeted rows byte-identical to the unbudgeted run's and       *)
(* prices eviction/fault-in; a 10^6-key run asserts the pool's        *)
(* enforced bound (peak resident <= budget + bounded slack) while     *)
(* the full working set lives on disk.                                *)
(* ------------------------------------------------------------------ *)

type spill_run = {
  sr_keys : int;
  sr_budget : int option;
  sr_rate : float;  (** events per second *)
  sr_peak : int;
  sr_max_entry : int;
  sr_disk : int;
  sr_evictions : int;
  sr_writes : int;  (** spill-file write calls *)
  sr_faults : int;
  sr_compactions : int;
  sr_compaction_ns : Fw_obs.Histogram.t;  (** one sample per compaction *)
  sr_fault_ns : Fw_obs.Histogram.t;  (** one sample per fault-in *)
  sr_rows : Fw_engine.Row.t list;
}

let section_spill () =
  heading "Out-of-core state: spill under a memory budget (Fw_spill)";
  let module Pool = Fw_spill.Pool in
  let eta = 1000 in
  (* every event carries a distinct key, and the single tumbling
     window spans the whole horizon: per-key state accumulates until
     close, so resident state grows with the key count unless evicted *)
  let mk_event i =
    Fw_engine.Event.make
      ~time:((i / eta) + 1)
      ~key:(Printf.sprintf "k%07d" i)
      ~value:(float_of_int (i land 0xffff) *. 0.5)
  in
  let run_keys ?budget n =
    let horizon = (n / eta) + 2 in
    let plan = Fw_plan.Plan.naive Aggregate.Avg [ Window.tumbling horizon ] in
    let registry = Fw_obs.Registry.create () in
    let pool = Option.map (fun b -> Pool.create ~registry ~budget:b ()) budget in
    let rows, dt =
      timed (fun () ->
          let exec = Fw_engine.Stream_exec.create ?spill:pool plan in
          for i = 0 to n - 1 do
            Fw_engine.Stream_exec.feed exec (mk_event i)
          done;
          Fw_engine.Stream_exec.close exec ~horizon)
    in
    let run =
      { sr_keys = n; sr_budget = budget; sr_rate = per_s n dt; sr_peak = 0;
        sr_max_entry = 0; sr_disk = 0; sr_evictions = 0; sr_writes = 0; sr_faults = 0;
        sr_compactions = 0;
        sr_compaction_ns = Fw_obs.Histogram.create ();
        sr_fault_ns = Fw_obs.Histogram.create (); sr_rows = rows }
    in
    match pool with
    | None -> run
    | Some p ->
        let histogram name default =
          match Fw_obs.Registry.find registry name with
          | Some (Fw_obs.Registry.Histogram h) -> h
          | _ -> default
        in
        let run =
          { run with sr_peak = Pool.peak_resident_bytes p; sr_max_entry = Pool.max_entry_bytes p;
                     sr_disk = Pool.disk_bytes p; sr_evictions = Pool.evictions p;
                     sr_writes = Pool.writes p;
                     sr_faults = Pool.faults p; sr_compactions = Pool.compactions p;
                     sr_compaction_ns = histogram "spill_compaction_ns" run.sr_compaction_ns;
                     sr_fault_ns = histogram "spill_fault_ns" run.sr_fault_ns }
        in
        Pool.close p;
        run
  in
  (* the bound the pool promises: the budget plus bounded slack — at
     most the pin depth (bounded by plan depth, << 8) entries of the
     largest weight, plus accounting granularity *)
  let slack r = (8 * r.sr_max_entry) + 4096 in
  let n_small = 100_000 in
  let budgets = [ 16_384; 65_536; 262_144 ] in
  Printf.printf
    "\n%d distinct keys, one %d-tick tumbling window, AVG (eta=%d)\n" n_small
    ((n_small / eta) + 2)
    eta;
  let baseline = run_keys n_small in
  Printf.printf "  %-14s %9.0f ev/s  (all state resident)\n" "unbudgeted"
    baseline.sr_rate;
  let curve = List.map (fun b -> run_keys ~budget:b n_small) budgets in
  List.iter
    (fun r ->
      Printf.printf
        "  budget %7d %9.0f ev/s  peak %7d B  disk %9d B  evict %7d  write \
         %5d  fault %7d  compact %3d  rows identical: %s\n"
        (Option.value ~default:0 r.sr_budget)
        r.sr_rate r.sr_peak r.sr_disk r.sr_evictions r.sr_writes r.sr_faults
        r.sr_compactions
        (if r.sr_rows = baseline.sr_rows then "yes" else "NO"))
    curve;
  (* the headline: a million keys whose working set cannot fit the
     budget by two orders of magnitude, resident nonetheless bounded *)
  let n_large = 1_000_000 in
  let large_budget = 262_144 in
  Printf.printf "\n%d distinct keys under a %d-byte budget\n" n_large
    large_budget;
  let large = run_keys ~budget:large_budget n_large in
  Printf.printf
    "  %9.0f ev/s  peak resident %d B (budget %d + slack %d)  disk %d B  \
     evictions %d  writes %d  faults %d  compactions %d  (%d result rows)\n"
    large.sr_rate large.sr_peak large_budget (slack large) large.sr_disk
    large.sr_evictions large.sr_writes large.sr_faults large.sr_compactions
    (List.length large.sr_rows);
  (* compactions over every budgeted run of the section *)
  let budgeted = curve @ [ large ] in
  let compactions = List.fold_left (fun n r -> n + r.sr_compactions) 0 budgeted in
  let us_p50 field =
    let h =
      List.fold_left
        (fun h r -> Fw_obs.Histogram.merged h (field r))
        (Fw_obs.Histogram.create ()) budgeted
    in
    match Fw_obs.Histogram.quantile h 0.5 with
    | Some ns -> float_of_int ns /. 1e3
    | None -> 0.0
  in
  let compaction_us_p50 = us_p50 (fun r -> r.sr_compaction_ns) in
  let fault_us_p50 = us_p50 (fun r -> r.sr_fault_ns) in
  Printf.printf
    "\n  %d compactions over the budgeted runs, p50 %.1f us; fault-in p50 %.2f us\n"
    compactions compaction_us_p50 fault_us_p50;
  let row r =
    Obj
      [ ("keys", Int r.sr_keys);
        ("budget", match r.sr_budget with Some b -> Int b | None -> Null);
        ("events_per_sec", Float r.sr_rate); ("peak_resident_bytes", Int r.sr_peak);
        ("max_entry_bytes", Int r.sr_max_entry); ("slack_bytes", Int (slack r));
        ("disk_bytes", Int r.sr_disk); ("evictions", Int r.sr_evictions);
        ("writes", Int r.sr_writes);
        ("faults", Int r.sr_faults); ("compactions", Int r.sr_compactions) ]
  in
  let per_event n = float_of_int n /. float_of_int n_large in
  (* resident bytes stay within budget + slack: no tolerance *)
  let bound_check r =
    at_most
      (Printf.sprintf "peak_resident_bytes.keys_%d.budget_%d" r.sr_keys
         (Option.value ~default:0 r.sr_budget))
      (float_of_int r.sr_peak)
      (float_of_int (Option.value ~default:0 r.sr_budget + slack r))
  in
  (* evictions gather in 8 KiB append tails: a count, so no host noise
     can flip it *)
  let writes_check r =
    at_most
      (Printf.sprintf "spill_writes.keys_%d.budget_%d" r.sr_keys
         (Option.value ~default:0 r.sr_budget))
      (float_of_int r.sr_writes)
      (float_of_int r.sr_evictions /. 8.0)
  in
  write_bench "spill"
    ~workload:
      [ ("keys", List [ Int n_small; Int n_large ]); ("eta", Int eta);
        ("windows", Str "one tumbling window over the horizon"); ("aggregate", Str "AVG");
        ("budgets", List (List.map (fun b -> Int b) budgets));
        ("large_budget", Int large_budget) ]
    ~events_per_s:large.sr_rate
    ~layers:
      [ ("spill.faults_per_event", Float (per_event large.sr_faults));
        ("spill.evictions_per_event", Float (per_event large.sr_evictions));
        ("spill.writes_per_event", Float (per_event large.sr_writes));
        ("spill.peak_resident_kb", Float (float_of_int large.sr_peak /. 1024.0));
        ("spill.disk_mb", Float (float_of_int large.sr_disk /. 1048576.0));
        ("spill.compactions", Int compactions);
        ("spill.fault_us_p50", Float fault_us_p50);
        ("spill.compaction_us_p50", Float compaction_us_p50) ]
    ~results:(List.map row (baseline :: budgeted))
    ((holds "rows_identical"
        (List.for_all (fun r -> r.sr_rows = baseline.sr_rows) curve)
     :: List.map bound_check budgeted)
    @ List.map writes_check budgeted
    (* the 10^5-key runs compact too, so the streaming compaction copy
       runs under the rows_identical check *)
    @ [ above "spill.compactions" (float_of_int compactions) 0.0 ])

let () =
  Printf.printf "factor-windows bench harness (seed %d)\n" !seed;
  if enabled "examples" then section_examples ();
  if enabled "table1" then section_table1 ();
  if enabled "fig11" then section_fig11 ();
  if enabled "fig12" then section_fig12 ();
  if enabled "fig13" then section_fig13 ();
  if enabled "fig14" then section_fig14 ();
  if enabled "fig15" then section_fig15 ();
  if enabled "validate" then section_validate ();
  if enabled "measured" then section_measured ();
  if enabled "ablation" then section_ablation ();
  if enabled "timing" then section_timing ();
  if enabled "engine" then section_engine ();
  if enabled "obs" then section_obs ();
  if enabled "snap" then section_snap ();
  if enabled "serve" then section_serve ();
  if enabled "spill" then section_spill ();
  print_newline ();
  if !gate_failed then begin
    prerr_endline "bench gate failed (see the FAIL lines above)";
    exit 1
  end
