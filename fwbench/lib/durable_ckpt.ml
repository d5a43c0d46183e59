(* [durable-ckpt]: `fwopt run --checkpoint` traffic.  The stream-fw
   query in Naive mode under Fw_snap.Checkpoint with policy-driven
   snapshots over 256 uniform keys.  After the timed phase the pipeline
   is abandoned half-way between two snapshots, as a killed process
   would leave it, and recovered with Fw_snap.Recover.load (snapshot
   decode plus WAL tail replay); the recovered pipeline finishes the
   input and must match an uninterrupted run byte for byte. *)

open Common
module Stream_exec = Fw_engine.Stream_exec
module Batch = Fw_engine.Batch
module Metrics = Fw_engine.Metrics
module Checkpoint = Fw_snap.Checkpoint

type config = {
  gen : Gen.spec;
  batch : int;
  every : int;  (* snapshot cadence in events; a multiple of [batch] *)
  warm_ticks : int;
  timed_ticks : int;
  tail_ticks : int;  (* input left after the crash; at least [every] events *)
}

(* every = 24 batches: one batch in 24 (4.2%) carries a snapshot, so the
   p99 of batch latency sits well inside the snapshot mode. *)
let config =
  {
    gen = { Gen.seed = 0; n_keys = 256; keys = Gen.Uniform; eta = 256 };
    batch = 512;
    every = 24 * 512;
    warm_ticks = 600;
    timed_ticks = 600;
    tail_ticks = 120;
  }

let smoke =
  {
    gen = { Gen.seed = 0; n_keys = 64; keys = Gen.Uniform; eta = 8 };
    batch = 32;
    every = 24 * 32;
    warm_ticks = 600;
    timed_ticks = 600;
    tail_ticks = 120;
  }

let mode = Stream_exec.Naive
let eta cfg = cfg.gen.Gen.eta
let horizon cfg = cfg.warm_ticks + cfg.timed_ticks + cfg.tail_ticks

type seg = {
  setup_ns : int;
  compile_ns : int;
  batches : (int * bool) list;  (* timed feed_batch ns, carried a snapshot *)
  bare_ns : int list;  (* traced: a bare engine on the same batches *)
  timed_events : int;
  recover_ns : int;
  replayed : int;
  close_ns : int;
  digest : string * int;
  metrics : Metrics.t;  (* the pre-crash pipeline's *)
  rows_at_crash : int;
  compiled : Fw_sql.Compile.compiled;
}

let plan_of c = c.Fw_sql.Compile.outcome.Fw_plan.Rewrite.plan

(* A bare engine over the same batches, run after a traced segment: the
   durability path's price is the difference (feeding both in one loop
   would let the bare engine's garbage slow the checkpointed one). *)
let bare_pass ctx cfg plan =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let b = Batch.create () in
  let exec = Stream_exec.create ~mode plan in
  let feed n on_batch =
    Engine_wl.feed ctx exec gen b ~batch:cfg.batch ~n ~name:"baseline.feed_batch"
      on_batch
  in
  feed (cfg.warm_ticks * eta cfg) ignore;
  let ns = ref [] in
  feed (cfg.timed_ticks * eta cfg) (fun x -> ns := x :: !ns);
  List.rev !ns

let run_segment ctx cfg ~traced =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let b = Batch.create () in
  let dir = fresh_dir ctx "durable" in
  let compiled, compile_ns =
    Engine_wl.compile ctx ~eta:(eta cfg) ~factor_windows:true Stream_fw.sql
  in
  let plan = plan_of compiled in
  let metrics = Metrics.create () in
  let cp, create_ns =
    Mono.time (fun () ->
        span ctx ~op:0 "snap.create" (fun () ->
            Checkpoint.create ~dir ~every:cfg.every ~metrics ~mode plan))
  in
  let warm_ns = ref 0 in
  Engine_wl.feed_with ctx (Checkpoint.feed_batch cp) gen b ~batch:cfg.batch
    ~n:(cfg.warm_ticks * eta cfg) ~name:"snap.feed_batch" (fun ns ->
      warm_ns := !warm_ns + ns);
  let setup_ns = compile_ns + create_ns + !warm_ns in
  (* timed phase *)
  let timed_events = cfg.timed_ticks * eta cfg in
  let batches = ref [] in
  let left = ref timed_events and i = ref 0 in
  while !left > 0 do
    let k = min cfg.batch !left in
    Gen.fill_batch gen b k;
    let seq0 = Checkpoint.seq cp in
    let ok, ns =
      Mono.time (fun () ->
          span ctx ~op:!i "snap.feed_batch" (fun () ->
              match Checkpoint.feed_batch cp b with
              | () -> true
              | exception Stream_exec.Late_event _ -> false))
    in
    check ctx ok "durable-ckpt: late event in batch %d" !i;
    batches := (ns, Checkpoint.seq cp <> seq0) :: !batches;
    left := !left - k;
    incr i
  done;
  (* crash half-way between two snapshots, then recover *)
  let fed = (cfg.warm_ticks + cfg.timed_ticks) * eta cfg in
  let extra = (cfg.every / 2) - (fed mod cfg.every) in
  let extra = if extra < 0 then extra + cfg.every else extra in
  Engine_wl.feed_with ctx (Checkpoint.feed_batch cp) gen b ~batch:cfg.batch ~n:extra
    ~name:"snap.feed_batch" ignore;
  let rows_at_crash = Checkpoint.row_count cp in
  let recovered, recover_ns =
    Mono.time (fun () ->
        span ctx ~op:0 "snap.recover_load" (fun () ->
            Fw_snap.Recover.load ~dir ~every:cfg.every ~mode plan))
  in
  let rows, replayed, close_ns =
    match recovered with
    | Error e ->
        check ctx false "durable-ckpt: recovery failed: %s" e;
        ([], 0, 0)
    | Ok r ->
        op ctx true;
        let cp' = r.Fw_snap.Recover.checkpoint in
        let tail = (horizon cfg * eta cfg) - fed - extra in
        Engine_wl.feed_with ctx (Checkpoint.feed_batch cp') gen b ~batch:cfg.batch
          ~n:tail ~name:"snap.feed_batch" ignore;
        let rows, close_ns =
          Mono.time (fun () ->
              span ctx ~op:0 "snap.close" (fun () ->
                  Checkpoint.close cp' ~horizon:(horizon cfg)))
        in
        (rows, r.Fw_snap.Recover.replayed_events, close_ns)
  in
  rm_rf dir;
  {
    setup_ns;
    compile_ns;
    batches = List.rev !batches;
    bare_ns = (if traced then bare_pass ctx cfg plan else []);
    timed_events;
    recover_ns;
    replayed;
    close_ns;
    digest = rows_digest rows;
    metrics;
    rows_at_crash;
    compiled;
  }

let busy s = List.fold_left (fun a (ns, _) -> a + ns) 0 s.batches
let rate s = float_of_int s.timed_events /. (float_of_int (busy s) /. 1e9)

(* The uninterrupted reference: a bare engine over the whole input; the
   digest of its rows. *)
let reference_digest ctx cfg plan =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let exec = Stream_exec.create ~mode plan in
  Engine_wl.feed ctx exec gen (Batch.create ()) ~batch:cfg.batch
    ~n:(horizon cfg * eta cfg) ~name:"reference" ignore;
  rows_digest (Stream_exec.close exec ~horizon:(horizon cfg))

(* Snapshot-carrying batches are a few percent of all batches, and the
   p99 of batch latency lies inside a latency mode rather than on the
   cliff between two: the quantiles half a percent either side of it
   stay within a factor of 2 (the plain and snapshot modes sit an order
   of magnitude apart).  On a cliff, run-to-run noise moves the
   p99 by the height of the cliff. *)
let mode_checks ctx segs =
  let snap = Stats.create () and plain = Stats.create () and all = Stats.create () in
  List.iter
    (fun s ->
      List.iter
        (fun (ns, carried) ->
          let ms = ms_of_ns ns in
          Stats.add all ms;
          Stats.add (if carried then snap else plain) ms)
        s.batches)
    segs;
  let n = Stats.length all in
  let frac = float_of_int (Stats.length snap) /. float_of_int (max 1 n) in
  self_check ctx
    (frac >= 0.02 && frac <= 0.10)
    "durable-ckpt: %.1f%% of batches carry a snapshot (want 2-10%%)" (100.0 *. frac);
  let q x = (Stats.percentile all x).value in
  self_check ctx
    (q 0.995 <= 2.0 *. q 0.985)
    "durable-ckpt: batch p99 %.3f ms sits on a cliff (p98.5 %.3f, p99.5 %.3f ms; \
     snapshot batches p50 %.3f ms, plain p50 %.3f ms)"
    (q 0.99) (q 0.985) (q 0.995)
    (Stats.percentile snap 0.5).value
    (Stats.percentile plain 0.5).value

let run ?(cfg = config) ctx =
  let segs =
    segments ctx ~min:(if ctx.trace then 4 else 3) (fun ~index:_ ~traced ->
        run_segment ctx cfg ~traced)
  in
  let first = snd (List.hd segs) in
  let expected = reference_digest ctx cfg (plan_of first.compiled) in
  check ctx (first.digest = expected)
    "durable-ckpt: recovered rows differ from the uninterrupted run's (%d vs %d \
     rows)"
    (snd first.digest) (snd expected);
  List.iteri
    (fun i (_, s) ->
      check ctx (s.digest = first.digest)
        "durable-ckpt: segment %d rows differ from segment 0" i;
      self_check ctx (s.replayed > 0)
        "durable-ckpt: segment %d crashed on a snapshot boundary (nothing replayed)" i)
    segs;
  mode_checks ctx (untraced segs);
  let ts = traced_or_all segs in
  let med f = Stats.median_list (List.map f ts) in
  (* batches that carried no snapshot: (checkpointed ns, bare ns) *)
  let plain =
    List.concat_map
      (fun s ->
        let bare = if s.bare_ns = [] then List.map (fun _ -> 0) s.batches else s.bare_ns in
        List.filter_map
          (fun ((ns, carried), b) -> if carried then None else Some (ns, b))
          (List.combine s.batches bare))
      ts
  in
  let plain_per_event f =
    per_event (List.fold_left (fun a x -> a + f x) 0 plain) (cfg.batch * List.length plain)
  in
  let bare_total = List.fold_left (fun a s -> a + List.fold_left ( + ) 0 s.bare_ns) 0 ts in
  let s0 = List.hd ts in
  let reg = Metrics.registry s0.metrics in
  Common.
    {
      setup_s = List.map (fun (_, s) -> float_of_int s.setup_ns /. 1e9) segs;
      rates = List.map rate (untraced segs);
      batch_ms =
        (let st = Stats.create () in
         List.iter
           (fun s -> List.iter (fun (ns, _) -> Stats.add st (ms_of_ns ns)) s.batches)
           (untraced segs);
         st);
      overhead_pct = overhead segs rate;
      layer =
        [
          ("snap.feed_ns_per_event", plain_per_event fst);
          ( "snap.wal_ns_per_event",
            if bare_total = 0 then 0.0 else plain_per_event (fun (ns, bare) -> ns - bare) );
          ( "engine.feed_ns_per_event",
            per_event bare_total
              (List.fold_left
                 (fun a s -> if s.bare_ns = [] then a else a + s.timed_events)
                 0 ts) );
          ("snap.pause_ms_p50", hist_quantile reg "snap_checkpoint_pause_ns" 0.5 /. 1e6);
          ("snap.snapshot_kb", hist_quantile reg "snap_checkpoint_bytes" 0.5 /. 1024.0);
          ("snap.recover_load_ms", med (fun s -> ms_of_ns s.recover_ns));
          ("snap.replayed_events", med (fun s -> float_of_int s.replayed));
          ("engine.close_ms", med (fun s -> ms_of_ns s.close_ns));
          ("sqlfront.compile_ms", med (fun s -> ms_of_ns s.compile_ns));
        ]
        @ engine_layers s0.metrics ~rows:s0.rows_at_crash
        @ core_layers ~eta:(eta cfg) s0.compiled;
    }
