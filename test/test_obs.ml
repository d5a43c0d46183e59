(* Fw_obs: histogram estimates vs an exact sorted-array reference,
   registry interning, exporters, trace ring, swappable clock. *)

open Helpers
module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge
module Histogram = Fw_obs.Histogram
module Registry = Fw_obs.Registry
module Trace = Fw_obs.Trace
module Export = Fw_obs.Export
module Clock = Fw_obs.Clock

(* --- exact reference: keep every sample, quantile by rank ---------- *)

let ref_quantile samples q =
  match List.sort compare samples with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      let rank =
        if q <= 0.0 then 1
        else if q >= 1.0 then n
        else max 1 (min n (int_of_float (ceil (q *. float_of_int n))))
      in
      Some (List.nth sorted (rank - 1))

let of_samples samples =
  let h = Histogram.create () in
  List.iter (Histogram.record h) samples;
  h

(* The histogram's contract: the estimate lives in the same (linear
   sub-)bucket as the true rank-q sample, i.e. it is within 25%
   relative error (plus it is clamped into [observed min, observed
   max]). *)
let same_bucket est truth =
  Histogram.bucket_index est = Histogram.bucket_index truth

(* --- generators ---------------------------------------------------- *)

(* Latency-shaped samples: mostly small, some zero, occasional huge
   outliers beyond 2^30 ns (the >1s spikes the mli calls out). *)
let gen_sample =
  QCheck2.Gen.(
    frequency
      [
        (1, return 0);
        (6, int_range 1 5_000);
        (3, int_range 5_000 50_000_000);
        (1, int_range (1 lsl 30) (1 lsl 40));
      ])

let gen_samples = QCheck2.Gen.(list_size (int_range 0 200) gen_sample)
let print_samples l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let quantiles = [ 0.0; 0.01; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ]

(* --- properties ---------------------------------------------------- *)

let prop_quantile_matches_reference samples =
  let h = of_samples samples in
  List.for_all
    (fun q ->
      match (Histogram.quantile h q, ref_quantile samples q) with
      | None, None -> samples = []
      | Some est, Some truth ->
          (* clamping can only pull the estimate toward the truth *)
          same_bucket est truth
          || (est >= (Option.get (Histogram.min_value h))
             && est <= Option.get (Histogram.max_value h)
             && same_bucket est truth)
      | _ -> false)
    quantiles

let prop_merge_is_exact (a, b) =
  let ha = of_samples a and hb = of_samples b in
  let merged = Histogram.merged ha hb in
  let all = of_samples (a @ b) in
  Histogram.count merged = Histogram.count all
  && Histogram.sum merged = Histogram.sum all
  && Histogram.min_value merged = Histogram.min_value all
  && Histogram.max_value merged = Histogram.max_value all
  && Histogram.nonzero_buckets merged = Histogram.nonzero_buckets all

let prop_merge_into_keeps_source (a, b) =
  let ha = of_samples a and hb = of_samples b in
  Histogram.merge_into ~into:ha hb;
  Histogram.count ha = List.length a + List.length b
  && Histogram.count hb = List.length b

(* --- unit cases the mli pins --------------------------------------- *)

let test_histogram_empty () =
  let h = Histogram.create () in
  check_int "count" 0 (Histogram.count h);
  check_int "sum" 0 (Histogram.sum h);
  Alcotest.(check (option int)) "min" None (Histogram.min_value h);
  Alcotest.(check (option int)) "q" None (Histogram.quantile h 0.5);
  Alcotest.(check (option (float 1e-9))) "mean" None (Histogram.mean h)

let test_histogram_single_sample () =
  let h = of_samples [ 1234 ] in
  List.iter
    (fun q ->
      Alcotest.(check (option int))
        (Printf.sprintf "q=%.2f is the sample" q)
        (Some 1234) (Histogram.quantile h q))
    quantiles

let test_histogram_outlier () =
  (* one >2^30 outlier among small samples: p50 stays small, p100
     reports the outlier exactly *)
  let outlier = (1 lsl 30) + 7 in
  let h = of_samples [ 10; 11; 12; 13; outlier ] in
  let p50 = Option.get (Histogram.quantile h 0.5) in
  Alcotest.(check bool) "p50 small" true (p50 < 64);
  Alcotest.(check (option int)) "max exact" (Some outlier)
    (Histogram.quantile h 1.0);
  (* b = 30, first of its 4 sub-buckets: 8 + (30-3)*4 *)
  check_int "bucket of outlier" 116 (Histogram.bucket_index outlier)

let test_histogram_negative_clamped () =
  let h = of_samples [ -5; -1 ] in
  check_int "count" 2 (Histogram.count h);
  Alcotest.(check (option int)) "min 0" (Some 0) (Histogram.min_value h);
  Alcotest.(check (option int)) "p99 0" (Some 0) (Histogram.quantile h 0.99)

let test_bucket_bounds () =
  (* values below 8 are exact, one bucket each *)
  check_int "0 -> bucket 0" 0 (Histogram.bucket_index 0);
  check_int "1 -> bucket 1" 1 (Histogram.bucket_index 1);
  check_int "3 -> bucket 3" 3 (Histogram.bucket_index 3);
  check_int "7 -> bucket 7" 7 (Histogram.bucket_index 7);
  (* [8,16) splits into 4 linear sub-buckets of width 2 *)
  check_int "8 -> bucket 8" 8 (Histogram.bucket_index 8);
  check_int "9 -> bucket 8" 8 (Histogram.bucket_index 9);
  check_int "10 -> bucket 9" 9 (Histogram.bucket_index 10);
  check_int "15 -> bucket 11" 11 (Histogram.bucket_index 15);
  check_int "16 -> bucket 12" 12 (Histogram.bucket_index 16);
  (* 1024 = 2^10 opens the (10-3)-th power group: 8 + 7*4 *)
  check_int "1024 -> bucket 36" 36 (Histogram.bucket_index 1024);
  let lo, hi = Histogram.bucket_bounds 9 in
  check_int "bucket 9 lo" 10 lo;
  check_int "bucket 9 hi" 11 hi;
  (* bounds and index agree everywhere *)
  for i = 0 to Histogram.n_buckets - 1 do
    let lo, hi = Histogram.bucket_bounds i in
    if lo > 0 || i = 0 then begin
      check_int (Printf.sprintf "lo of %d round-trips" i) i
        (Histogram.bucket_index lo);
      check_int (Printf.sprintf "hi of %d round-trips" i) i
        (Histogram.bucket_index hi)
    end
  done;
  (* every representable int lands in a bucket *)
  check_bool "max_int in range" true
    (Histogram.bucket_index max_int < Histogram.n_buckets)

(* --- registry ------------------------------------------------------ *)

let test_registry_interning () =
  let r = Registry.create () in
  let c1 = Registry.counter r ~labels:[ ("b", "2"); ("a", "1") ] "reqs_total" in
  (* same metric, labels in the other order: same cell *)
  let c2 = Registry.counter r ~labels:[ ("a", "1"); ("b", "2") ] "reqs_total" in
  Counter.inc c1;
  Counter.add c2 4;
  check_int "one shared cell" 5 (Counter.get c1);
  Alcotest.(check (option int))
    "lookup" (Some 5)
    (Registry.counter_value r ~labels:[ ("a", "1"); ("b", "2") ] "reqs_total");
  Alcotest.(check (option int))
    "unknown name" None
    (Registry.counter_value r "nope_total");
  check_int "one entry" 1 (List.length (Registry.entries r))

let test_registry_type_conflict () =
  let r = Registry.create () in
  ignore (Registry.counter r "x_total");
  Alcotest.check_raises "re-register as gauge"
    (Invalid_argument "Fw_obs.Registry: x_total already registered as a counter")
    (fun () -> ignore (Registry.gauge r "x_total"))

let test_registry_entries_sorted () =
  let r = Registry.create () in
  ignore (Registry.counter r ~labels:[ ("n", "2") ] "b_total");
  ignore (Registry.counter r ~labels:[ ("n", "1") ] "b_total");
  ignore (Registry.gauge r "a_depth");
  let names =
    List.map
      (fun (e : Registry.entry) ->
        (e.Registry.name, e.Registry.labels))
      (Registry.entries r)
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "sorted by name then labels"
    [
      ("a_depth", []);
      ("b_total", [ ("n", "1") ]);
      ("b_total", [ ("n", "2") ]);
    ]
    names

(* --- domain safety ------------------------------------------------- *)

(* Two domains intern the same series names in ONE shared registry at
   the same time — the registry mutex's job — while each bumps only the
   cells labelled with its own domain: the documented single-writer-
   per-cell contract.  Without the mutex the intern table corrupts,
   loses series or hands two domains different cells for one series. *)
let test_registry_two_domain_stress () =
  let r = Registry.create () in
  let rounds = 2_000 and cells = 50 in
  let hammer d () =
    let domain = ("domain", string_of_int d) in
    for i = 0 to rounds - 1 do
      let labels = [ domain; ("cell", string_of_int (i mod cells)) ] in
      Counter.inc (Registry.counter r ~labels "stress_total");
      Gauge.set (Registry.gauge r ~labels "stress_depth")
        (float_of_int (i mod cells));
      Histogram.record (Registry.histogram r ~labels:[ domain ] "stress_lat_ns") i
    done
  in
  let d1 = Domain.spawn (hammer 1) and d2 = Domain.spawn (hammer 2) in
  Domain.join d1;
  Domain.join d2;
  List.iter
    (fun d ->
      let domain = ("domain", string_of_int d) in
      let total = ref 0 in
      for c = 0 to cells - 1 do
        match
          Registry.counter_value r
            ~labels:[ domain; ("cell", string_of_int c) ]
            "stress_total"
        with
        | Some v -> total := !total + v
        | None -> Alcotest.failf "domain %d cell %d missing" d c
      done;
      check_int (Printf.sprintf "domain %d: no lost increments" d) rounds !total;
      check_int
        (Printf.sprintf "domain %d: histogram saw every record" d)
        rounds
        (Histogram.count (Registry.histogram r ~labels:[ domain ] "stress_lat_ns")))
    [ 1; 2 ];
  check_int "each series interned once"
    ((2 * 2 * cells) + 2)
    (List.length (Registry.entries r))

(* --- exporters ----------------------------------------------------- *)

let contains ~needle hay =
  let n = String.length needle and m = String.length hay in
  let rec at i = i + n <= m && (String.sub hay i n = needle || at (i + 1)) in
  at 0

let test_export_json () =
  check_string "escaping" {|"a\"b\\c\n"|} (Export.json_string "a\"b\\c\n");
  let r = Registry.create () in
  Counter.add (Registry.counter r ~labels:[ ("w", "W<10,10>") ] "items_total") 7;
  let h = Registry.histogram r "lat_ns" in
  Histogram.record h 100;
  Histogram.record h 200;
  let json = Export.registry_json r in
  check_bool "counter present" true
    (contains ~needle:{|"name":"items_total"|} json);
  check_bool "counter value" true (contains ~needle:{|"value":7|} json);
  check_bool "histogram count" true (contains ~needle:{|"count":2|} json);
  check_bool "p50 present" true (contains ~needle:{|"p50":|} json);
  check_bool "p99 present" true (contains ~needle:{|"p99":|} json);
  let tr = Trace.create () in
  Trace.record tr
    {
      Trace.name = "win-fire";
      node = 3;
      start_ns = 1;
      dur_ns = 2;
      items_in = 4;
      items_out = 5;
      attrs = [ ("window", "W<10,10>") ];
    };
  let snap = Export.snapshot_json ~trace:tr r in
  check_bool "snapshot has metrics" true (contains ~needle:{|"metrics":|} snap);
  check_bool "snapshot has trace" true
    (contains ~needle:{|"name":"win-fire"|} snap)

let test_export_prometheus () =
  let r = Registry.create () in
  Counter.add (Registry.counter r ~help:"Items" ~labels:[ ("k", "v") ] "items_total") 3;
  let h = Registry.histogram r "lat_ns" in
  Histogram.record h 3;
  let text = Export.prometheus r in
  check_bool "help line" true (contains ~needle:"# HELP items_total Items" text);
  check_bool "type line" true (contains ~needle:"# TYPE items_total counter" text);
  check_bool "sample" true (contains ~needle:{|items_total{k="v"} 3|} text);
  check_bool "histogram type" true
    (contains ~needle:"# TYPE lat_ns histogram" text);
  check_bool "le bucket" true (contains ~needle:{|lat_ns_bucket{le="3"} 1|} text);
  check_bool "inf bucket" true
    (contains ~needle:{|lat_ns_bucket{le="+Inf"} 1|} text);
  check_bool "sum" true (contains ~needle:"lat_ns_sum 3" text);
  check_bool "count" true (contains ~needle:"lat_ns_count 1" text)

(* --- trace ring ---------------------------------------------------- *)

let mk_span i =
  {
    Trace.name = Printf.sprintf "s%d" i;
    node = i;
    start_ns = i;
    dur_ns = 1;
    items_in = 0;
    items_out = 0;
    attrs = [];
  }

let test_trace_ring () =
  let tr = Trace.create ~capacity:4 () in
  for i = 1 to 6 do
    Trace.record tr (mk_span i)
  done;
  check_int "length capped" 4 (Trace.length tr);
  check_int "dropped" 2 (Trace.dropped tr);
  Alcotest.(check (list string))
    "oldest first, oldest two evicted"
    [ "s3"; "s4"; "s5"; "s6" ]
    (List.map (fun s -> s.Trace.name) (Trace.to_list tr));
  Trace.clear tr;
  check_int "cleared" 0 (Trace.length tr);
  check_int "dropped reset" 0 (Trace.dropped tr)

let test_trace_span_combinator () =
  Clock.set_source (fun () -> 42);
  Fun.protect ~finally:Clock.use_real (fun () ->
      let tr = Trace.create () in
      let v =
        Trace.span tr ~name:"work" ~node:7 (fun () -> ("result", 3, 2))
      in
      check_string "passes result through" "result" v;
      match Trace.to_list tr with
      | [ s ] ->
          check_string "name" "work" s.Trace.name;
          check_int "node" 7 s.Trace.node;
          check_int "start" 42 s.Trace.start_ns;
          check_int "dur (frozen clock)" 0 s.Trace.dur_ns;
          check_int "in" 3 s.Trace.items_in;
          check_int "out" 2 s.Trace.items_out
      | l -> Alcotest.failf "expected 1 span, got %d" (List.length l))

(* --- heavy tail: p99.9 against the exact reference ----------------- *)

(* The qcheck property above covers arbitrary shapes; this pins the
   case the sub-bucket refinement exists for — a Pareto-ish latency
   distribution where log2-only buckets would smear the p99.9 estimate
   across a 2x range.  Deterministic LCG, no seed plumbing needed. *)
let test_heavy_tail_p999 () =
  let state = ref 123456789 in
  let rand () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let samples =
    List.init 10_000 (fun _ ->
        let u = float_of_int (1 + (rand () mod 1_000_000)) /. 1_000_000.0 in
        int_of_float (1_000.0 /. (u ** 1.2)))
  in
  let h = of_samples samples in
  List.iter
    (fun q ->
      let est = Option.get (Histogram.quantile h q) in
      let truth = Option.get (ref_quantile samples q) in
      check_bool
        (Printf.sprintf "q=%.4f: est %d in bucket of exact %d" q est truth)
        true (same_bucket est truth))
    [ 0.5; 0.9; 0.99; 0.999; 0.9999 ]

(* --- prometheus golden --------------------------------------------- *)

(* Exact exposition text: entry order (name, then labels), HELP/TYPE
   headers, histogram cumulative buckets, and label-value escaping are
   all part of the scrape contract — fwtop and any real Prometheus
   parse this byte stream. *)
let test_prometheus_golden () =
  let r = Registry.create () in
  Counter.add
    (Registry.counter r ~help:"Total things"
       ~labels:[ ("path", "a\\b\"c\nd") ]
       "things_total")
    3;
  Gauge.set (Registry.gauge r ~help:"Depth" "depth") 2.5;
  let h = Registry.histogram r ~help:"Latency" "lat_ns" in
  Histogram.record h 1;
  Histogram.record h 9;
  let expected =
    "# HELP depth Depth\n# TYPE depth gauge\ndepth 2.5\n"
    ^ "# HELP lat_ns Latency\n# TYPE lat_ns histogram\n"
    ^ "lat_ns_bucket{le=\"1\"} 1\nlat_ns_bucket{le=\"9\"} 2\n"
    ^ "lat_ns_bucket{le=\"+Inf\"} 2\nlat_ns_sum 10\nlat_ns_count 2\n"
    ^ "# HELP things_total Total things\n# TYPE things_total counter\n"
    ^ "things_total{path=\"a\\\\b\\\"c\\nd\"} 3\n"
  in
  check_string "golden exposition" expected (Export.prometheus r);
  (* and the parser is its exact inverse, escaping included *)
  match Export.parse_prometheus (Export.prometheus r) with
  | samples ->
      let v name =
        List.find_map
          (fun (n, _, v) -> if n = name then Some v else None)
          samples
      in
      Alcotest.(check (option (float 1e-9))) "counter" (Some 3.0)
        (v "things_total");
      Alcotest.(check (option (float 1e-9))) "gauge" (Some 2.5) (v "depth");
      let labels =
        List.find_map
          (fun (n, ls, _) -> if n = "things_total" then Some ls else None)
          samples
      in
      Alcotest.(check (option (list (pair string string))))
        "label value round-trips"
        (Some [ ("path", "a\\b\"c\nd") ])
        labels

(* --- meter: rate and lag derivation over a fake clock -------------- *)

let gauge_value r ?(labels = []) name =
  List.find_map
    (fun (e : Registry.entry) ->
      match e.Registry.metric with
      | Registry.Gauge g when e.Registry.name = name && e.Registry.labels = labels
        ->
          Some (Gauge.get g)
      | _ -> None)
    (Registry.entries r)

let test_meter_rates () =
  let t = ref 1_000_000_000 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.use_real (fun () ->
      let r = Registry.create () in
      let c = Registry.counter r "ingested_events_total" in
      let m = Fw_obs.Meter.create r in
      check_string "derived name" "ingested_events_per_sec"
        (Fw_obs.Meter.rate_name "ingested_events_total");
      Fw_obs.Meter.sample m;
      Alcotest.(check (option (float 1e-9)))
        "one sample: no rate yet" None
        (Fw_obs.Meter.rate m "ingested_events_total");
      Counter.add c 500;
      t := !t + 500_000_000;
      Fw_obs.Meter.sample m;
      Alcotest.(check (option (float 1e-6)))
        "500 events in 0.5s" (Some 1000.0)
        (Fw_obs.Meter.rate m "ingested_events_total");
      (* the rate lands in the registry as a gauge, so every exporter
         carries it *)
      Alcotest.(check (option (float 1e-6)))
        "published as gauge" (Some 1000.0)
        (gauge_value r "ingested_events_per_sec");
      (* sliding window: the rate spans the retained ring, not just
         the last interval *)
      Counter.add c 2500;
      t := !t + 1_000_000_000;
      Fw_obs.Meter.sample m;
      Alcotest.(check (option (float 1e-6)))
        "3000 events in 1.5s" (Some 2000.0)
        (Fw_obs.Meter.rate m "ingested_events_total"))

let test_meter_lag () =
  let t = ref 5_000_000_000 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.use_real (fun () ->
      let r = Registry.create () in
      let wm = Registry.gauge r "engine_watermark_advance_ts_ns" in
      let m = Fw_obs.Meter.create r in
      Gauge.set wm (float_of_int !t);
      t := !t + 250_000_000;
      Fw_obs.Meter.sample m;
      Alcotest.(check (option (float 1e-6)))
        "lag = now - last advance" (Some 250_000_000.0)
        (gauge_value r "engine_watermark_lag_ns");
      (* watermark moves: lag resets *)
      Gauge.set wm (float_of_int !t);
      t := !t + 10_000_000;
      Fw_obs.Meter.sample m;
      Alcotest.(check (option (float 1e-6)))
        "lag after fresh advance" (Some 10_000_000.0)
        (gauge_value r "engine_watermark_lag_ns"))

(* --- scrape server -------------------------------------------------- *)

let http_get ~port ~path =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      let req =
        Printf.sprintf "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
          path
      in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let k = Unix.read sock chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      let s = Buffer.contents buf in
      let rec find_sep i =
        if i + 4 > String.length s then None
        else if String.sub s i 4 = "\r\n\r\n" then Some i
        else find_sep (i + 1)
      in
      match find_sep 0 with
      | None -> Alcotest.fail "malformed HTTP response"
      | Some i ->
          let head = String.sub s 0 i in
          let body = String.sub s (i + 4) (String.length s - i - 4) in
          let status =
            match String.index_opt head '\r' with
            | Some e -> String.sub s 0 e
            | None -> head
          in
          (status, body))

let status_code st =
  (* "HTTP/1.1 200 OK" -> 200 *)
  match String.split_on_char ' ' st with
  | _ :: code :: _ -> int_of_string code
  | _ -> Alcotest.failf "bad status line %S" st

let test_scrape_roundtrip () =
  let r = Registry.create () in
  Counter.add (Registry.counter r "reqs_total") 7;
  let meter = Fw_obs.Meter.create r in
  let s = Fw_obs.Scrape.start ~meter ~port:0 r in
  Fun.protect
    ~finally:(fun () -> Fw_obs.Scrape.stop s)
    (fun () ->
      let port = Fw_obs.Scrape.port s in
      let st, body = http_get ~port ~path:"/metrics" in
      check_int "200" 200 (status_code st);
      let samples = Export.parse_prometheus body in
      let v name =
        List.find_map
          (fun (n, _, v) -> if n = name then Some v else None)
          samples
      in
      Alcotest.(check (option (float 1e-9))) "counter over HTTP" (Some 7.0)
        (v "reqs_total");
      check_bool "server counts its own scrapes" true
        (Option.get (v "scrape_requests_total") >= 1.0);
      let st, body = http_get ~port ~path:"/metrics.json" in
      check_int "json 200" 200 (status_code st);
      check_bool "scrape timestamp" true (contains ~needle:{|"ts_ns":|} body);
      check_bool "metrics payload" true
        (contains ~needle:{|"name":"reqs_total"|} body);
      let st, body = http_get ~port ~path:"/healthz" in
      check_int "healthz 200" 200 (status_code st);
      check_string "healthz body" "ok" (String.trim body);
      let st, _ = http_get ~port ~path:"/nope" in
      check_int "404" 404 (status_code st));
  (* stop is idempotent *)
  Fw_obs.Scrape.stop s

(* Scraping while another domain folds worker registries into the
   served one — the exact shape of `fwopt run --serve` over a sharded
   run.  Every scrape must parse, and the cumulative series must read
   monotone, untorn values. *)
let test_scrape_during_merge () =
  let shared = Registry.create () in
  let s = Fw_obs.Scrape.start ~port:0 shared in
  Fun.protect
    ~finally:(fun () -> Fw_obs.Scrape.stop s)
    (fun () ->
      let port = Fw_obs.Scrape.port s in
      let merges = 300 in
      let merger =
        Domain.spawn (fun () ->
            for i = 1 to merges do
              let w = Registry.create () in
              Counter.add (Registry.counter w "merged_total") 5;
              Histogram.record (Registry.histogram w "merge_lat_ns") i;
              Gauge.set (Registry.gauge w "merge_ticks") (float_of_int i);
              Registry.merge_into ~into:shared w
            done)
      in
      let last = ref 0.0 and last_ticks = ref 0.0 in
      for _ = 1 to 40 do
        let st, body = http_get ~port ~path:"/metrics" in
        check_int "mid-merge 200" 200 (status_code st);
        let samples = Export.parse_prometheus body in
        let v name =
          List.find_map
            (fun (n, _, v) -> if n = name then Some v else None)
            samples
        in
        (match v "merged_total" with
        | None -> ()
        | Some v ->
            check_bool "counter monotone" true (v >= !last);
            check_bool "no torn read" true
              (Float.rem v 5.0 = 0.0 && v <= float_of_int (5 * merges));
            last := v);
        match v "merge_ticks" with
        | None -> ()
        | Some v ->
            (* progress gauges merge by max: monotone under merging *)
            check_bool "progress gauge monotone" true (v >= !last_ticks);
            last_ticks := v
      done;
      Domain.join merger;
      let _, body = http_get ~port ~path:"/metrics" in
      let samples = Export.parse_prometheus body in
      let v name =
        List.find_map
          (fun (n, _, v) -> if n = name then Some v else None)
          samples
      in
      Alcotest.(check (option (float 1e-9)))
        "all merges landed"
        (Some (float_of_int (5 * merges)))
        (v "merged_total");
      Alcotest.(check (option (float 1e-9)))
        "histogram count landed"
        (Some (float_of_int merges))
        (v "merge_lat_ns_count"))

(* Quantile must stay total while another domain is recording: record
   bumps count before the buckets, so a racy reader can see
   count > sum(buckets).  The walk is bounded at the last bucket —
   without the bound this raises Invalid_argument, which would kill
   the scrape domain mid-run. *)
let test_quantile_during_record () =
  let r = Registry.create () in
  let h = Registry.histogram r "race_lat_ns" in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          Histogram.record h (1 + (!i * 7919 mod 1_000_000))
        done)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join writer)
    (fun () ->
      for _ = 1 to 5_000 do
        List.iter
          (fun q ->
            match Histogram.quantile h q with
            | None -> ()
            | Some v -> check_bool "quantile in range" true (v >= 0))
          [ 0.5; 0.99; 0.999; 1.0 ]
      done)

(* A head terminated with bare LFs (printf '...\n\n' | nc) must be
   answered immediately, not after the 5 s receive timeout. *)
let test_scrape_bare_lf_request () =
  let r = Registry.create () in
  let s = Fw_obs.Scrape.start ~port:0 r in
  Fun.protect
    ~finally:(fun () -> Fw_obs.Scrape.stop s)
    (fun () ->
      let addr =
        Unix.ADDR_INET (Unix.inet_addr_loopback, Fw_obs.Scrape.port s)
      in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect sock addr;
          let req = "GET /healthz HTTP/1.1\nHost: t\n\n" in
          let t0 = Unix.gettimeofday () in
          ignore (Unix.write_substring sock req 0 (String.length req));
          let chunk = Bytes.create 4096 in
          let n = Unix.read sock chunk 0 4096 in
          check_bool "answered before the receive timeout" true
            (Unix.gettimeofday () -. t0 < 4.0);
          check_bool "got a response" true (n > 0);
          let resp = Bytes.sub_string chunk 0 n in
          check_bool "200 on bare-LF head" true
            (contains ~needle:"200 OK" resp)))

(* A scraper that connects and vanishes without reading (curl timeout,
   fwtop killed) must not take the server down: the resulting EPIPE is
   swallowed (SIGPIPE ignored), and the next scrape succeeds. *)
let test_scrape_client_disconnect () =
  let r = Registry.create () in
  Counter.add (Registry.counter r "reqs_total") 3;
  let s = Fw_obs.Scrape.start ~port:0 r in
  Fun.protect
    ~finally:(fun () -> Fw_obs.Scrape.stop s)
    (fun () ->
      let port = Fw_obs.Scrape.port s in
      let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
      for _ = 1 to 10 do
        let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.connect sock addr;
           let req = "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n" in
           ignore (Unix.write_substring sock req 0 (String.length req));
           (* abort without reading the response: the server's write
              lands on a dead socket *)
           Unix.setsockopt_optint sock Unix.SO_LINGER (Some 0)
         with Unix.Unix_error _ -> ());
        (try Unix.close sock with Unix.Unix_error _ -> ())
      done;
      let st, body = http_get ~port ~path:"/metrics" in
      check_int "server still alive" 200 (status_code st);
      check_bool "payload intact" true
        (contains ~needle:"reqs_total 3" body))

(* --- shared HTTP core: body reading -------------------------------- *)

(* Send raw bytes (optionally cutting the connection short) and read
   whatever response comes back. *)
let raw_roundtrip ~port ?(shutdown_after_send = false) payload =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      ignore (Unix.write_substring sock payload 0 (String.length payload));
      if shutdown_after_send then
        (try Unix.shutdown sock Unix.SHUTDOWN_SEND
         with Unix.Unix_error _ -> ());
      let buf = Buffer.create 1024 in
      let chunk = Bytes.create 1024 in
      let rec drain () =
        match Unix.read sock chunk 0 1024 with
        | 0 -> ()
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            drain ()
        | exception Unix.Unix_error _ -> ()
      in
      drain ();
      Buffer.contents buf)

(* An echo server with a tiny body bound: the shared core must refuse
   an oversized Content-Length with 413 before reading the body, and
   answer 400 on a body the client cut short — never hand a torn body
   to the handler. *)
let test_httpd_body_limits () =
  let seen = ref [] in
  let s =
    Fw_obs.Httpd.start ~max_body:64 ~port:0 (fun req ->
        seen := req.Fw_obs.Httpd.body :: !seen;
        Fw_obs.Httpd.ok req.Fw_obs.Httpd.body)
  in
  Fun.protect
    ~finally:(fun () -> Fw_obs.Httpd.stop s)
    (fun () ->
      let port = Fw_obs.Httpd.port s in
      (* in-bounds body echoes fine *)
      let resp =
        raw_roundtrip ~port
          "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello"
      in
      check_bool "small body accepted" true (contains ~needle:"200 OK" resp);
      check_bool "body delivered intact" true
        (contains ~needle:"hello" resp);
      (* a Content-Length beyond max_body is refused without reading:
         only the head is sent, yet the answer comes immediately *)
      let t0 = Unix.gettimeofday () in
      let resp =
        raw_roundtrip ~port
          "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 100000\r\n\r\n"
      in
      check_bool "oversized body refused with 413" true
        (contains ~needle:"413" resp);
      check_bool "refused before the receive timeout" true
        (Unix.gettimeofday () -. t0 < 4.0);
      (* a torn body — fewer bytes than advertised, then FIN — is a
         400, and the handler never sees it *)
      let resp =
        raw_roundtrip ~port ~shutdown_after_send:true
          "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: 50\r\n\r\nshort"
      in
      check_bool "torn body is a 400" true (contains ~needle:"400" resp);
      check_bool "torn body never reaches the handler" true
        (not (List.exists (contains ~needle:"short") !seen));
      (* a negative Content-Length is plain garbage *)
      let resp =
        raw_roundtrip ~port
          "POST /echo HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n"
      in
      check_bool "negative length is a 400" true
        (contains ~needle:"400" resp))

(* --- clock --------------------------------------------------------- *)

let test_clock_source () =
  let t = ref 100 in
  Clock.set_source (fun () -> !t);
  Fun.protect ~finally:Clock.use_real (fun () ->
      check_int "fake now" 100 (Clock.now_ns ());
      t := 175;
      check_int "elapsed" 75 (Clock.elapsed_ns ~since:100);
      t := 50;
      check_int "backwards clamped" 0 (Clock.elapsed_ns ~since:100));
  check_bool "real clock ticks" true (Clock.now_ns () > 0)

let suite =
  [
    Alcotest.test_case "histogram: empty" `Quick test_histogram_empty;
    Alcotest.test_case "histogram: single sample" `Quick
      test_histogram_single_sample;
    Alcotest.test_case "histogram: >2^30 outlier" `Quick test_histogram_outlier;
    Alcotest.test_case "histogram: negatives clamp to 0" `Quick
      test_histogram_negative_clamped;
    Alcotest.test_case "histogram: bucket bounds" `Quick test_bucket_bounds;
    qtest ~count:300 "histogram: quantiles within a bucket of exact"
      gen_samples print_samples prop_quantile_matches_reference;
    qtest ~count:300 "histogram: merge equals rebuilt"
      QCheck2.Gen.(pair gen_samples gen_samples)
      (fun (a, b) -> print_samples a ^ " + " ^ print_samples b)
      prop_merge_is_exact;
    qtest ~count:100 "histogram: merge_into leaves source intact"
      QCheck2.Gen.(pair gen_samples gen_samples)
      (fun (a, b) -> print_samples a ^ " + " ^ print_samples b)
      prop_merge_into_keeps_source;
    Alcotest.test_case "registry: interning" `Quick test_registry_interning;
    Alcotest.test_case "registry: type conflict raises" `Quick
      test_registry_type_conflict;
    Alcotest.test_case "registry: entries sorted" `Quick
      test_registry_entries_sorted;
    Alcotest.test_case "registry: 2-domain stress" `Quick
      test_registry_two_domain_stress;
    Alcotest.test_case "histogram: heavy-tail p99.9 vs exact" `Quick
      test_heavy_tail_p999;
    Alcotest.test_case "export: json" `Quick test_export_json;
    Alcotest.test_case "export: prometheus" `Quick test_export_prometheus;
    Alcotest.test_case "export: prometheus golden" `Quick
      test_prometheus_golden;
    Alcotest.test_case "meter: rate derivation" `Quick test_meter_rates;
    Alcotest.test_case "meter: watermark lag" `Quick test_meter_lag;
    Alcotest.test_case "scrape: HTTP round-trip" `Quick test_scrape_roundtrip;
    Alcotest.test_case "scrape: concurrent with merge" `Quick
      test_scrape_during_merge;
    Alcotest.test_case "histogram: quantile total during record" `Quick
      test_quantile_during_record;
    Alcotest.test_case "scrape: bare-LF request head" `Quick
      test_scrape_bare_lf_request;
    Alcotest.test_case "scrape: client disconnect mid-response" `Quick
      test_scrape_client_disconnect;
    Alcotest.test_case "httpd: body bounds (413/400/torn)" `Quick
      test_httpd_body_limits;
    Alcotest.test_case "trace: ring buffer" `Quick test_trace_ring;
    Alcotest.test_case "trace: span combinator" `Quick
      test_trace_span_combinator;
    Alcotest.test_case "clock: swappable source" `Quick test_clock_source;
  ]
