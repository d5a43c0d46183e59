(* Vectorized batch execution (Fw_engine.Batch + feed_batch).

   The load-bearing property: any partition of the event stream into
   columnar batches — punctuation marks inside batches included — is
   byte-identical to per-event feeding: same rows (emission order too),
   bit-for-bit cost-model counters, and engine state at every
   punctuation boundary (exercised via mid-batch checkpoints).  The
   batched aggregation entry points (Pane.add_run, Swag.slide) must be
   exactly their per-event loops. *)
open Helpers
module Aggregate = Fw_agg.Aggregate
module Combine = Fw_agg.Combine
module Pane = Fw_agg.Pane
module Swag = Fw_agg.Swag
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Batch = Fw_engine.Batch
module Metrics = Fw_engine.Metrics
module Stream_exec = Fw_engine.Stream_exec
module Plan = Fw_plan.Plan
module Paths = Fw_check.Paths

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- the columnar container ----------------------------------------- *)

let test_batch_accessors () =
  let b = Batch.create () in
  check_bool "fresh empty" true (Batch.is_empty b);
  Batch.push b (ev 1 "a" 10.0);
  Batch.push b (ev 3 "b" 20.0);
  check_int "length" 2 (Batch.length b);
  check_bool "no longer empty" false (Batch.is_empty b);
  check_int "time" 3 (Batch.time b 1);
  check_string "key" "a" (Batch.key b 0);
  check_bool "value" true (Batch.value b 1 = 20.0);
  check_bool "event" true (Batch.event b 0 = ev 1 "a" 10.0);
  check_bool "columns expose data" true
    ((Batch.times b).(0) = 1 && (Batch.keys b).(1) = "b"
    && (Batch.values b).(0) = 10.0);
  check_bool "time ordered" true (Batch.is_time_ordered b);
  Batch.push b (ev 2 "c" 1.0);
  check_bool "disorder detected" false (Batch.is_time_ordered b)

let test_batch_slots_roundtrip () =
  let slots =
    [
      Batch.Punct 0;
      Batch.Ev (ev 1 "a" 1.0);
      Batch.Ev (ev 2 "b" 2.0);
      Batch.Punct 2;
      Batch.Ev (ev 5 "a" 3.0);
      Batch.Punct 6;
    ]
  in
  let b = Batch.of_slots slots in
  check_int "events" 3 (Batch.length b);
  check_int "marks" 3 (Batch.mark_count b);
  check_bool "round-trip" true (Batch.to_slots b = slots);
  let seen = ref [] in
  Batch.iter_slots (fun s -> seen := s :: !seen) b;
  check_bool "iter_slots interleaves (trailing mark included)" true
    (List.rev !seen = slots)

let test_batch_punct_coalescing () =
  (* consecutive marks at one position collapse to the max watermark:
     only that one is observable under monotone watermark semantics *)
  let b = Batch.create () in
  Batch.push b (ev 1 "a" 1.0);
  Batch.push_punct b 3;
  Batch.push_punct b 2;
  Batch.push_punct b 5;
  check_int "coalesced to one mark" 1 (Batch.mark_count b);
  check_bool "kept the max" true (Batch.mark b 0 = (1, 5))

let test_batch_reset_recycles () =
  let b = Batch.create () in
  for i = 0 to 9 do
    Batch.push b (ev i "k" (float_of_int i))
  done;
  Batch.push_punct b 9;
  Batch.reset b;
  check_int "no events" 0 (Batch.length b);
  check_int "no marks" 0 (Batch.mark_count b);
  check_bool "empty" true (Batch.is_empty b);
  Batch.push b (ev 100 "x" 1.0);
  check_bool "usable after reset" true
    (Batch.length b = 1 && Batch.time b 0 = 100)

let test_of_events () =
  let evs = [ ev 1 "a" 1.0; ev 2 "b" 2.0 ] in
  let b = Batch.of_events evs in
  check_int "events" 2 (Batch.length b);
  check_int "no marks" 0 (Batch.mark_count b);
  check_bool "slots are the events" true
    (Batch.to_slots b = List.map (fun e -> Batch.Ev e) evs)

(* --- batched aggregation entry points -------------------------------- *)

let test_pane_add_run_equivalence () =
  let keys = [| "a"; "b"; "a"; "c"; "b"; "a"; "c"; "b" |] in
  let values = [| 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 |] in
  (* a selection that skips and reorders nothing the loop wouldn't *)
  let sel = [| 1; 2; 4; 5; 7 |] in
  List.iter
    (fun agg ->
      let p_loop = Pane.create agg and p_run = Pane.create agg in
      for i = 1 to Array.length sel - 1 do
        let j = sel.(i) in
        Pane.add p_loop ~key:keys.(j) values.(j)
      done;
      Pane.add_run p_run ~keys ~values ~sel ~lo:1 ~hi:(Array.length sel);
      check_bool
        (Aggregate.to_string agg ^ " states identical")
        true
        (Pane.export p_loop = Pane.export p_run))
    Aggregate.all

let test_swag_slide_equivalence () =
  (* slide = evict_below + query, exactly — across both queue
     representations and an interleaving with flips *)
  List.iter
    (fun agg ->
      let q_slide = Swag.create agg and q_two = Swag.create agg in
      let vs = [| 5.0; 3.0; 8.0; 1.0; 9.0; 2.0; 7.0; 4.0; 6.0 |] in
      Array.iteri
        (fun p v ->
          Swag.push q_slide ~idx:p (Combine.of_value agg v);
          Swag.push q_two ~idx:p (Combine.of_value agg v))
        vs;
      for m = 1 to Array.length vs do
        let a = Swag.slide q_slide ~below:m in
        Swag.evict_below q_two m;
        let b = Swag.query q_two in
        check_bool
          (Printf.sprintf "%s slide@%d" (Aggregate.to_string agg) m)
          true
          (Option.map Combine.finalize a = Option.map Combine.finalize b);
        check_int
          (Printf.sprintf "%s evicted@%d" (Aggregate.to_string agg) m)
          (Swag.evicted q_two) (Swag.evicted q_slide)
      done)
    Aggregate.all

(* --- feed_batch ≡ feed, property-tested ------------------------------ *)

let pw m =
  List.map
    (fun (w, n) -> (Fw_window.Window.to_string w, n))
    (Metrics.per_window m)

let gen_batch_case =
  QCheck2.Gen.(
    let* ws = gen_window_set ~max_size:3 () in
    let* agg = oneofl Aggregate.all in
    let* seed = int_range 0 5000 in
    let* hash = int_range 0 1_000_000 in
    let* batch = int_range 1 17 in
    return (ws, agg, seed, hash, batch))

let print_batch_case (ws, agg, seed, hash, batch) =
  Printf.sprintf "%s %s seed=%d hash=%d batch=%d" (print_window_list ws)
    (Aggregate.to_string agg) seed hash batch

let events_of_seed seed ~horizon =
  let prng = Fw_util.Prng.create seed in
  (* canonical feed order: [Stream_exec.run] sorts before feeding, so
     the batches must be built over the same order or same-instance
     float folds accumulate in a different order *)
  Event.sort
    (Fw_workload.Event_gen.varied prng Fw_workload.Event_gen.default_config
       ~eta_max:2 ~horizon)

let prop_partition_invariance =
  qtest ~count:120 "any batch partition = batch-of-1 (rows + metrics)"
    gen_batch_case print_batch_case
    (fun (ws, agg, seed, hash, batch) ->
      let horizon = 80 in
      let events = events_of_seed seed ~horizon in
      let plan = Plan.naive agg ws in
      List.for_all
        (fun mode ->
          let m0 = Metrics.create () in
          let rows0 = Stream_exec.run ~metrics:m0 ~mode plan ~horizon events in
          let m1 = Metrics.create () in
          let exec = Stream_exec.create ~metrics:m1 ~mode plan in
          List.iter
            (Stream_exec.feed_batch exec)
            (Paths.batches_of_events ~hash ~batch events);
          let rows1 = Stream_exec.close exec ~horizon in
          rows1 = rows0
          && Metrics.ingested m0 = Metrics.ingested m1
          && pw m0 = pw m1)
        [ Stream_exec.Naive; Stream_exec.Incremental ])

let prop_punctuation_placement =
  (* a batch with internal punctuation must emit the same rows in the
     same order as the interleaved per-event feed/advance sequence —
     checked on the raw emission stream, before close's sort *)
  qtest ~count:120 "mid-batch punctuation = interleaved feed/advance"
    gen_batch_case print_batch_case
    (fun (ws, agg, seed, hash, batch) ->
      let horizon = 80 in
      let events = events_of_seed seed ~horizon in
      let plan = Plan.naive agg ws in
      let batches = Paths.batches_of_events ~hash ~batch events in
      List.for_all
        (fun mode ->
          let exec_a = Stream_exec.create ~mode plan in
          List.iter
            (fun b ->
              Batch.iter_slots
                (function
                  | Batch.Ev e -> Stream_exec.feed exec_a e
                  | Batch.Punct wm -> Stream_exec.advance exec_a wm)
                b)
            batches;
          let exec_b = Stream_exec.create ~mode plan in
          List.iter (Stream_exec.feed_batch exec_b) batches;
          let drained exec =
            List.init (Stream_exec.row_count exec) (Stream_exec.row exec)
          in
          let a = drained exec_a and b = drained exec_b in
          (* the contract is PER-NODE emission order: a coalesced
             watermark fires all of one window's due instances before
             the next window's, so only the per-window subsequences are
             order-comparable *)
          List.for_all
            (fun w ->
              List.filter (fun r -> r.Row.window = w) a
              = List.filter (fun r -> r.Row.window = w) b)
            ws
          && Stream_exec.close exec_a ~horizon
             = Stream_exec.close exec_b ~horizon)
        [ Stream_exec.Naive; Stream_exec.Incremental ])

(* --- mid-batch checkpoints ------------------------------------------- *)

let fresh_temp_dir () =
  let base = Filename.temp_file "fwbatch" ".d" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let test_mid_batch_checkpoint_recovers () =
  (* the whole stream in ONE batch with punctuation marks inside;
     [on_punctuation] snapshots land mid-batch, an injected crash kills
     the process mid-batch too — recovery must still be byte-identical
     to the uninterrupted per-event run *)
  let windows = [ w ~r:6 ~s:2 ] in
  let plan = Plan.naive Aggregate.Sum windows in
  let horizon = 40 in
  let events =
    List.init horizon (fun t ->
        ev t (if t mod 3 = 0 then "a" else "b") (float_of_int (t mod 7)))
  in
  let m0 = Metrics.create () in
  let rows0 = Stream_exec.run ~metrics:m0 plan ~horizon events in
  let b = Batch.create () in
  List.iteri
    (fun i e ->
      Batch.push b e;
      if i mod 5 = 4 then Batch.push_punct b e.Event.time)
    events;
  check_bool "batch has internal marks" true (Batch.mark_count b >= 7);
  let dir = fresh_temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fault = Fw_snap.Fault.create ~crash_at_event:25 () in
      let cp =
        Fw_snap.Checkpoint.create ~dir ~every:1000 ~on_punctuation:true ~fault
          plan
      in
      (try
         Fw_snap.Checkpoint.feed_batch cp b;
         Alcotest.fail "expected the injected crash"
       with Fw_snap.Fault.Crash _ -> ());
      check_bool "snapshots were taken at batch-internal punctuations" true
        (Fw_snap.Checkpoint.seq cp >= 4);
      match Fw_snap.Recover.load ~dir plan with
      | Error m -> Alcotest.fail ("recovery failed: " ^ m)
      | Ok r ->
          let rest = List.filteri (fun i _ -> i >= 25) events in
          Fw_snap.Checkpoint.feed_batch r.Fw_snap.Recover.checkpoint
            (Batch.of_events rest);
          let rows1 =
            Fw_snap.Checkpoint.close r.Fw_snap.Recover.checkpoint ~horizon
          in
          check_bool "rows byte-identical" true (rows1 = rows0);
          check_int "ingest counter" (Metrics.ingested m0)
            (Metrics.ingested r.Fw_snap.Recover.metrics);
          check_bool "per-window counters" true
            (pw m0 = pw r.Fw_snap.Recover.metrics))

let test_crash_batched_path_clean () =
  (* the composed differential path (crash + batch) on a fixed scenario *)
  let sc =
    {
      Fw_check.Scenario.agg = Aggregate.Avg;
      windows = [ w ~r:8 ~s:4; tumbling 10 ];
      eta = 1;
      horizon = 60;
      events =
        List.init 60 (fun t -> ev t (if t mod 2 = 0 then "x" else "y") 1.5);
      shape = Fw_check.Scenario.Random_shape;
      tumbling = false;
      shards = 2;
      batch = 5;
      budget = 4096;
    }
  in
  List.iter
    (fun mode ->
      match
        Paths.rows
          (Paths.Stack
             { sink = Paths.Checkpointed; mode; batched = true; spilled = false })
          sc
      with
      | Ok rows -> check_bool "produced rows" true (rows <> [])
      | Error e -> Alcotest.fail ("crash-batched path failed: " ^ e))
    [ Stream_exec.Naive; Stream_exec.Incremental ]

(* --- the PR-5 negative-scaling sentinel ------------------------------ *)

let test_sharded_batched_throughput () =
  (* Per-event ring messages once made 4 shards SLOWER than one (the
     per-event mutex round-trip dominated).  With whole-batch messages
     the sharded run must at least match single-shard throughput on a
     host with enough cores.  On smaller hosts the property cannot hold
     (domains time-slice one core), so the check is skipped loudly
     rather than silently passed. *)
  let cores = Domain.recommended_domain_count () in
  if cores < 4 then
    Printf.printf
      "    [skip] sharded-batched throughput sentinel: host has %d core(s), \
       needs >= 4 (negative scaling is expected when domains share a core)\n"
      cores
  else begin
    let windows = [ w ~r:60 ~s:12 ] in
    let plan = Plan.naive Aggregate.Sum windows in
    let horizon = 30_000 in
    let events =
      List.init horizon (fun t ->
          ev t (Printf.sprintf "k%d" (t mod 64)) (float_of_int (t land 15)))
    in
    let time f =
      let t0 = Fw_obs.Clock.now_ns () in
      ignore (f ());
      Fw_obs.Clock.elapsed_ns ~since:t0
    in
    let single =
      time (fun () -> Stream_exec.run plan ~horizon events)
    in
    let sharded =
      time (fun () ->
          Fw_shard.Runner.run ~shards:4 ~batch:1024 plan ~horizon events)
    in
    check_bool
      (Printf.sprintf
         "4-shard batched throughput >= single-shard (single %dns, sharded \
          %dns)"
         single sharded)
      true
      (sharded <= single)
  end

let suite =
  [
    Alcotest.test_case "batch accessors" `Quick test_batch_accessors;
    Alcotest.test_case "slots round-trip" `Quick test_batch_slots_roundtrip;
    Alcotest.test_case "punct coalescing" `Quick test_batch_punct_coalescing;
    Alcotest.test_case "reset recycles" `Quick test_batch_reset_recycles;
    Alcotest.test_case "of_events" `Quick test_of_events;
    Alcotest.test_case "pane add_run = add loop" `Quick
      test_pane_add_run_equivalence;
    Alcotest.test_case "swag slide = evict + query" `Quick
      test_swag_slide_equivalence;
    prop_partition_invariance;
    prop_punctuation_placement;
    Alcotest.test_case "mid-batch checkpoint recovers" `Quick
      test_mid_batch_checkpoint_recovers;
    Alcotest.test_case "crash-batched path clean" `Quick
      test_crash_batched_path_clean;
    Alcotest.test_case "sharded-batched throughput sentinel" `Quick
      test_sharded_batched_throughput;
  ]
