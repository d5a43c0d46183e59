(* The benchmark's own tests: percentile selection, self-time
   arithmetic, generator determinism, the metric lists against
   BENCHMARK.json, and a short smoke run of every workload. *)

open Fwbench

let close_to = Alcotest.float 1e-9

(* ---- percentiles ---- *)

let test_percentiles () =
  let s = Stats.of_list (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  let p99 = Stats.percentile s 0.99 in
  Alcotest.check close_to "p99 of 1..1000" 990.0 p99.Stats.value;
  Alcotest.(check int) "sample count" 1000 p99.Stats.n;
  Alcotest.(check int) "samples beyond p99" 10 p99.Stats.beyond;
  Alcotest.(check bool) "1000 samples carry a p99" true (Stats.enough p99);
  let p50 = Stats.percentile s 0.5 in
  Alcotest.check close_to "p50 is the lower middle" 500.0 p50.Stats.value;
  let short = Stats.of_list (List.init 999 float_of_int) in
  Alcotest.(check bool) "999 samples do not" false (Stats.enough (Stats.percentile short 0.99));
  Alcotest.(check int) "p99 needs 1000" 1000 (Stats.min_samples 0.99);
  Alcotest.(check int) "p95 needs 200" 200 (Stats.min_samples 0.95);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.min_samples 0.5);
  let one = Stats.percentile (Stats.of_list [ 7.0 ]) 0.99 in
  Alcotest.check close_to "single sample" 7.0 one.Stats.value;
  Alcotest.(check int) "nothing beyond a single sample" 0 one.Stats.beyond;
  Alcotest.(check bool) "empty median is nan" true (Float.is_nan (Stats.median_list []))

let test_chunked () =
  (* a burst of interference slows the middle third of the samples *)
  let s = Stats.of_list (List.init 3000 (fun i -> if i >= 1000 && i < 2000 then 100.0 else 1.0)) in
  let p99 = Stats.chunked_percentile s 0.99 in
  Alcotest.check close_to "the burst does not move the p99" 1.0 p99.Stats.value;
  Alcotest.(check int) "all samples counted" 3000 p99.Stats.n;
  Alcotest.(check int) "ten beyond in every chunk" 10 p99.Stats.beyond;
  let few = Stats.chunked_percentile (Stats.of_list (List.init 500 float_of_int)) 0.99 in
  Alcotest.(check bool) "500 samples cannot carry a p99" false (Stats.enough few);
  (* ten segments of 300 calls, each ending in ten costly ones (50..59):
     chunks of whole segments all hold the same mix *)
  let seg = List.init 300 (fun i -> if i < 290 then 1.0 else float_of_int (i - 240)) in
  let s = Stats.of_list (List.concat (List.init 10 (fun _ -> seg))) in
  let p99 = Stats.chunked_percentile ~period:300 s 0.99 in
  Alcotest.check close_to "16th largest of five segments" 56.0 p99.Stats.value;
  Alcotest.(check int) "two chunks of 1500: 15 beyond" 15 p99.Stats.beyond

(* ---- self time ---- *)

let test_self_time () =
  let t = Spans.create () in
  let add name parent s e =
    (Spans.push t ~name ~parent ~op:0 ~start_ns:s ~end_ns:e).Spans.id
  in
  let root = add "obs.ingest" (-1) 0 100 in
  let a = add "serve.handler" root 10 40 in
  let _b = add "serve.handler" root 30 60 in  (* overlaps [a] *)
  let _g = add "engine.csv_parse" a 15 20 in
  let _late = add "engine.rows_csv" a 35 70 in  (* straddles [a]'s end *)
  let _other = add "snap.feed_batch" (-1) 200 260 in
  let self = Spans.self_times (Spans.spans t) in
  Alcotest.(check (array int))
    "self times"
    [| 100 - 50; 30 - 5 - 5; 30; 5; 35; 60 |]
    self;
  let layers = Spans.layers (Spans.spans t) in
  let find l = List.find (fun r -> r.Spans.layer = l) layers in
  Alcotest.(check int) "obs self" 50 (find "obs").Spans.self_ns;
  Alcotest.(check int) "serve self" 50 (find "serve").Spans.self_ns;
  Alcotest.(check int) "serve calls" 2 (find "serve").Spans.calls;
  Alcotest.(check int) "engine self" 40 (find "engine").Spans.self_ns;
  Alcotest.(check string) "largest first" "snap" (List.hd layers).Spans.layer

let test_span_nesting () =
  let t = Spans.create () in
  let tr = Some t in
  Spans.with_span tr ~op:1 "a.outer" (fun () ->
      Spans.with_span tr ~op:1 "b.inner" ignore);
  Spans.with_span tr ~op:2 "c.next" ignore;
  let s = Spans.spans t in
  Alcotest.(check (list int)) "parents" [ -1; 0; -1 ] (Array.to_list (Array.map (fun x -> x.Spans.parent) s));
  Alcotest.(check int) "current restored" (-1) (Spans.current_id ())

(* ---- generator ---- *)

let csv spec n =
  let g = Gen.create spec in
  let buf = Buffer.create 1024 in
  Gen.add_csv g buf n;
  Buffer.contents buf

let spec = { Gen.seed = 42; n_keys = 64; keys = Gen.Zipf 1.0; eta = 16 }

let test_generator () =
  Alcotest.(check string) "same seed, same bytes" (csv spec 5000) (csv spec 5000);
  Alcotest.(check bool) "other seed, other bytes" false
    (csv spec 5000 = csv { spec with Gen.seed = 43 } 5000);
  Alcotest.(check bool) "uniform differs from zipf" false
    (csv spec 5000 = csv { spec with Gen.keys = Gen.Uniform } 5000);
  (* batches carry exactly the events the CSV spells out *)
  let g = Gen.create spec and b = Fw_engine.Batch.create () in
  Gen.fill_batch g b 5000;
  let from_batch =
    Fw_engine.Csv_io.parse_events (csv spec 5000) |> Result.get_ok
    |> List.mapi (fun i e -> Fw_engine.Batch.event b i = e)
  in
  Alcotest.(check bool) "batch = csv" true (List.for_all Fun.id from_batch);
  Alcotest.(check int) "eta events per tick" (4999 / 16) (Fw_engine.Batch.time b 4999);
  (* Zipf(1): the first key is the most frequent *)
  let counts = Hashtbl.create 64 in
  for i = 0 to 4999 do
    let k = Fw_engine.Batch.key b i in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  done;
  let top = Hashtbl.find counts "k00000" in
  Hashtbl.iter (fun _ c -> Alcotest.(check bool) "k00000 leads" true (c <= top)) counts

(* ---- BENCHMARK.json names every metric fwbench prints ---- *)

let test_metric_lists () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let json = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let mentions s =
    let n = String.length json and m = String.length s in
    let rec go i = i + m <= n && (String.sub json i m = s || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, unit) ->
      Alcotest.(check bool)
        (name ^ " listed")
        true
        (mentions (Printf.sprintf {|{"name": "%s", "unit": "%s"|} name unit)))
    (Report.end_to_end @ Report.per_layer)

(* ---- smoke runs ---- *)

let smoke name run =
  let scratch = Filename.concat "smoke" name in
  Common.rm_rf scratch;
  Common.mkdir_p scratch;
  let ctx = Common.make_ctx ~seed:3 ~seconds:0.0 ~trace:true ~scratch in
  let r : Common.report = run ctx in
  Alcotest.(check (list string)) (name ^ ": no failed check") [] ctx.Common.problems;
  Alcotest.(check int) (name ^ ": no failed operation") 0 ctx.Common.failed;
  Alcotest.(check bool) (name ^ ": operations attempted") true (ctx.Common.attempted > 0);
  Alcotest.(check int) (name ^ ": four segments") 4 (List.length r.Common.setup_s);
  Alcotest.(check bool) (name ^ ": rates measured") true
    (List.for_all (fun x -> x > 0.0) r.Common.rates);
  Alcotest.(check bool) (name ^ ": spans recorded") true (Spans.length ctx.Common.all_spans > 0);
  let layer = Report.per_layer_metrics r in
  Alcotest.(check (list string)) (name ^ ": layer metrics listed") [] layer.Report.problems;
  Common.rm_rf scratch

let () =
  Alcotest.run "fwbench"
    [
      ( "units",
        [
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "chunked percentiles" `Quick test_chunked;
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "generator" `Quick test_generator;
          Alcotest.test_case "metric lists" `Quick test_metric_lists;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "stream-fw" `Quick (fun () ->
              smoke "stream-fw" (Stream_fw.run ~cfg:Stream_fw.smoke));
          Alcotest.test_case "serve-churn" `Quick (fun () ->
              smoke "serve-churn" (Serve_churn.run ~cfg:Serve_churn.smoke));
          Alcotest.test_case "durable-ckpt" `Quick (fun () ->
              smoke "durable-ckpt" (Durable_ckpt.run ~cfg:Durable_ckpt.smoke));
          Alcotest.test_case "spill-wide" `Quick (fun () ->
              smoke "spill-wide" (Spill_wide.run ~cfg:Spill_wide.smoke));
        ] );
    ]
