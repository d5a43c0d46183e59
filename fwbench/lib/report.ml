(* Turning a workload's report into the one-line JSON result.

   End-to-end metrics (untraced runs) are the five every workload
   measures; per-layer metrics (traced runs) are the union over all
   workloads, a layer a workload never reaches reading 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("events_per_s", "ev/s");
    ("batch_p50_ms", "ms");
    ("batch_p99_ms", "ms");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("sqlfront.normalize_us", "us");
    ("sqlfront.compile_ms", "ms");
    ("core.optimize_ms", "ms");
    ("core.cost_ratio", "ratio");
    ("core.factor_windows", "count");
    ("engine.feed_ns_per_event", "ns");
    ("engine.close_ms", "ms");
    ("engine.items_per_event", "ratio");
    ("engine.fallback_nodes", "count");
    ("engine.rows_per_event", "ratio");
    ("engine.fire_us_p50", "us");
    ("engine.fire_us_p99", "us");
    ("engine.csv_parse_ns_per_event", "ns");
    ("engine.rows_csv_us", "us");
    ("agg.pane_flushes_per_event", "ratio");
    ("agg.swag_evictions_per_event", "ratio");
    ("snap.feed_ns_per_event", "ns");
    ("snap.wal_ns_per_event", "ns");
    ("snap.pause_ms_p50", "ms");
    ("snap.snapshot_kb", "KiB");
    ("snap.recover_load_ms", "ms");
    ("snap.replayed_events", "count");
    ("spill.faults_per_event", "ratio");
    ("spill.evictions_per_event", "ratio");
    ("spill.fault_us_p50", "us");
    ("spill.compactions", "count");
    ("spill.peak_resident_kb", "KiB");
    ("spill.disk_mb", "MiB");
    ("serve.feed_ms", "ms");
    ("serve.rows_from_us", "us");
    ("serve.register_cold_us", "us");
    ("serve.register_warm_us", "us");
    ("serve.unregister_us", "us");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.groups", "count");
    ("serve.degraded", "count");
    ("serve.poll_p50_us", "us");
    ("serve.poll_p99_us", "us");
    ("serve.register_p50_us", "us");
    ("serve.register_p95_us", "us");
    ("obs.http_transport_us_p50", "us");
    ("trace.overhead_pct", "%");
  ]

let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

type outcome = {
  metrics : (string * float * string) list;
  notes : string list;  (* sample counts, for the log *)
  problems : string list;  (* reasons the result is not correct *)
}

let end_to_end_metrics (r : Common.report) ~rss =
  let setup = Stats.median_list r.Common.setup_s in
  let rate = Stats.median_list r.Common.rates in
  (* every untraced segment takes the same number of samples *)
  let period = Stats.length r.Common.batch_ms / max 1 (List.length r.Common.rates) in
  let p50 = Stats.chunked_percentile ~period r.Common.batch_ms 0.5 in
  let p99 = Stats.chunked_percentile ~period r.Common.batch_ms 0.99 in
  let per = (Stats.min_samples 0.99 + period - 1) / max 1 period in
  let chunks = max 1 (List.length r.Common.rates / max 1 per) in
  let problems =
    (if Stats.enough p99 then []
     else
       [
         Printf.sprintf
           "batch_p99_ms rests on %d samples (%d beyond it; %d needed)" p99.Stats.n
           p99.Stats.beyond Stats.min_beyond;
       ])
    @ List.filter_map
        (fun (name, v) ->
          if Float.is_finite v && v > 0.0 then None
          else Some (Printf.sprintf "%s is %g" name v))
        [ ("setup_s", setup); ("events_per_s", rate); ("batch_p50_ms", p50.Stats.value);
          ("batch_p99_ms", p99.Stats.value); ("peak_rss_mb", rss) ]
  in
  {
    metrics =
      List.map2
        (fun (name, unit) v -> (name, v, unit))
        end_to_end
        [ setup; rate; p50.Stats.value; p99.Stats.value; rss ];
    notes =
      [
        Printf.sprintf "events_per_s: median of %d segment rates [%s]"
          (List.length r.Common.rates)
          (String.concat " " (List.map (Printf.sprintf "%.4g") r.Common.rates));
        Printf.sprintf "setup_s: median of %d set-ups [%s]"
          (List.length r.Common.setup_s)
          (String.concat " " (List.map (Printf.sprintf "%.4g") r.Common.setup_s));
        Printf.sprintf "batch_p50_ms: %d samples, median of per-chunk p50s" p50.Stats.n;
        Printf.sprintf
          "batch_p99_ms: %d samples (%d per segment) in %d chunks of whole \
           segments, median of per-chunk p99s, %d beyond in the smallest chunk"
          p99.Stats.n period chunks p99.Stats.beyond;
      ];
    problems;
  }

let per_layer_metrics (r : Common.report) =
  let layer = ("trace.overhead_pct", Option.value r.Common.overhead_pct ~default:0.0) :: r.Common.layer in
  {
    metrics =
      List.map
        (fun (name, unit) ->
          let v = Option.value (List.assoc_opt name layer) ~default:0.0 in
          (name, (if Float.is_finite v then v else 0.0), unit))
        per_layer;
    notes = [];
    problems =
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name per_layer then None
          else Some ("unlisted per-layer metric " ^ name))
        layer;
  }

let to_json ~correct ~attempted ~failed metrics =
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (json_num v) unit)
          metrics))
