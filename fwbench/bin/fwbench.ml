(* fwbench: one workload, one process, one JSON result line.

     fwbench --workload NAME --seed N --seconds S --trace 0|1 [--scratch DIR]

   Untraced runs report the end-to-end metrics; traced runs (--trace 1)
   report the per-layer metrics, write the span dump and per-layer table
   under DIR/trace, and print the table to stderr.  The exit code is 0
   only when every output check and workload self-check passed. *)

open Fwbench

let workloads =
  [
    ("stream-fw", fun ctx -> Stream_fw.run ctx);
    ("serve-churn", fun ctx -> Serve_churn.run ctx);
    ("durable-ckpt", fun ctx -> Durable_ckpt.run ctx);
    ("spill-wide", fun ctx -> Spill_wide.run ctx);
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let scratch = ref (Filename.concat ".bench_build" "fwbench") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--scratch", Arg.Set_string scratch, "DIR working directory for files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fwbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match List.assoc_opt !workload workloads with
    | Some r -> r
    | None ->
        Printf.eprintf "fwbench: unknown workload %S (one of: %s)\n" !workload
          (String.concat ", " (List.map fst workloads));
        exit 2
  in
  let scratch = Filename.concat !scratch !workload in
  Common.rm_rf scratch;
  Common.mkdir_p scratch;
  let ctx =
    Common.make_ctx ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~scratch
  in
  let report = run ctx in
  let out =
    if ctx.Common.trace then Report.per_layer_metrics report
    else Report.end_to_end_metrics report ~rss:ctx.Common.peak_rss_mb
  in
  let problems = List.rev ctx.Common.problems @ out.Report.problems in
  List.iter (fun n -> Printf.eprintf "fwbench: %s\n" n) out.Report.notes;
  Printf.eprintf
    "fwbench: host speed %.3f of the reference, median of [%s] (per-segment durations scaled to it)\n"
    ctx.Common.host_speed
    (String.concat " " (List.map (Printf.sprintf "%.3f") ctx.Common.speeds));
  List.iter (fun p -> Printf.eprintf "fwbench: FAILED %s\n" p) problems;
  if ctx.Common.trace then begin
    let spans = Spans.spans ctx.Common.all_spans in
    let table = Spans.layer_table (Spans.layers spans) in
    let dir = Filename.concat scratch "trace" in
    Common.mkdir_p dir;
    let base = Filename.concat dir (Printf.sprintf "%s-seed%d" !workload !seed) in
    let oc = open_out (base ^ ".spans.tsv") in
    Spans.dump oc spans;
    close_out oc;
    let oc = open_out (base ^ ".layers.txt") in
    output_string oc table;
    List.iter
      (fun (name, v, unit) -> Printf.fprintf oc "%-32s %14.4f %s\n" name v unit)
      out.Report.metrics;
    close_out oc;
    Printf.eprintf "fwbench: %d spans; per-layer self time (traced segments):\n%s"
      (Array.length spans) table;
    Printf.eprintf "fwbench: wrote %s.spans.tsv and %s.layers.txt\n" base base
  end;
  List.iter
    (fun (name, v, unit) -> Printf.eprintf "  %-32s %14.4f %s\n" name v unit)
    out.Report.metrics;
  let correct = problems = [] && ctx.Common.failed = 0 in
  print_endline
    (Report.to_json ~correct ~attempted:(max 1 ctx.Common.attempted)
       ~failed:ctx.Common.failed out.Report.metrics);
  (* only the result line remains of the run's files *)
  if not ctx.Common.trace then Common.rm_rf scratch;
  exit (if correct then 0 else 1)
