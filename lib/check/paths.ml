module Plan = Fw_plan.Plan
module Rewrite = Fw_plan.Rewrite
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Event = Fw_engine.Event
module Batch = Fw_engine.Batch
module Row = Fw_engine.Row
module Window = Fw_window.Window
module Exec = Fw_slicing.Exec
module Checkpoint = Fw_snap.Checkpoint

type sink = Engine | Checkpointed | Served
type plan = Naive_plan | Rewritten of { factor_windows : bool }

type path =
  | Reference
  | Sliced of Exec.mode * Exec.slicing
  | Stack of {
      plan : plan;
      sink : sink;
      mode : Stream_exec.mode;
      batched : bool;
      spilled : bool;
    }

(* The server ingests plain event lists (no punctuation marks, so no
   batch geometry to honour), refuses any per-group memory share under
   64 KiB, and compiles its own SQL into a rewritten plan, so served
   stacks never run batched, spilled or on a plan of the harness's
   choosing. *)
let servable = function
  | Stack { sink = Served; plan; batched; spilled; _ } ->
      plan = Naive_plan && not (batched || spilled)
  | Reference | Sliced _ | Stack _ -> true

let all =
  let bools = [ false; true ] in
  let stacks =
    List.concat_map
      (fun plan ->
        List.concat_map
          (fun sink ->
            List.concat_map
              (fun mode ->
                List.concat_map
                  (fun batched ->
                    List.map
                      (fun spilled ->
                        Stack { plan; sink; mode; batched; spilled })
                      bools)
                  bools)
              [ Stream_exec.Naive; Stream_exec.Incremental ])
          [ Engine; Checkpointed; Served ])
      [
        Naive_plan;
        Rewritten { factor_windows = true };
        Rewritten { factor_windows = false };
      ]
  in
  [
    Reference;
    Sliced (Exec.Unshared, Exec.Paned_slicing);
    Sliced (Exec.Shared, Exec.Paned_slicing);
    Sliced (Exec.Unshared, Exec.Paired_slicing);
    Sliced (Exec.Shared, Exec.Paired_slicing);
  ]
  @ List.filter servable stacks

let name = function
  | Reference -> "reference"
  | Sliced (mode, slicing) ->
      Printf.sprintf "%s-%s"
        (match mode with Exec.Unshared -> "unshared" | Exec.Shared -> "shared")
        (match slicing with
        | Exec.Paned_slicing -> "paned"
        | Exec.Paired_slicing -> "paired")
  | Stack { plan; sink; mode; batched; spilled } ->
      String.concat "-"
        ([
           (match sink with
           | Engine -> "engine"
           | Checkpointed -> "checkpointed"
           | Served -> "served");
           (match mode with
           | Stream_exec.Naive -> "naive"
           | Stream_exec.Incremental -> "incremental");
         ]
        @ (if batched then [ "batched" ] else [])
        @ (if spilled then [ "spilled" ] else [])
        @
        match plan with
        | Naive_plan -> []
        | Rewritten { factor_windows = true } -> [ "rewritten" ]
        | Rewritten { factor_windows = false } -> [ "rewritten-no-factor" ])

(* The incremental engine handles every scenario: windows where panes
   don't apply (holistic aggregate, non-aligned geometry, count or
   session family) fall back to a dedicated path node by node.  The
   rewritten plans are also total — {!Fw_plan.Rewrite.optimize} routes
   non-aligned hops and session windows around the WCG as exposed
   fallback aggregates — so only the slicing and served paths are
   gated by the window set: session windows have no static slice
   geometry, and the SQL front rejects non-aligned hops at analyze
   time, so they cannot be registered over the wire. *)
let applicable path sc =
  servable path
  &&
  match path with
  | Sliced _ -> not (List.exists Window.is_session sc.Scenario.windows)
  | Stack { sink = Served; _ } ->
      not
        (List.exists
           (fun w -> Window.is_hop w && not (Window.is_aligned w))
           sc.Scenario.windows)
  | Reference | Stack _ -> true

(* The plan a stack executes: the unrewritten one, or the min-cost WCG
   plan with or without factor windows. *)
let plan_of plan (sc : Scenario.t) =
  match plan with
  | Naive_plan -> Plan.naive sc.Scenario.agg sc.Scenario.windows
  | Rewritten { factor_windows } ->
      (Rewrite.optimize ~eta:sc.Scenario.eta ~factor_windows sc.Scenario.agg
         sc.Scenario.windows)
        .Rewrite.plan

(* The input the streaming paths actually consume: sorted, clipped at
   the horizon (mirrors [Stream_exec.run]). *)
let fed_events (sc : Scenario.t) =
  List.filter
    (fun e -> e.Event.time < sc.Scenario.horizon)
    (Event.sort sc.Scenario.events)

(* --- deterministic batch geometry ----------------------------------- *)

(* Partition an event list into columnar batches: per-batch sizes drawn
   from a tiny LCG seeded with [hash] in [1, batch] — so single-event
   batches and batches spanning many distinct times both occur — with
   punctuation marks injected mid-batch between distinct event times.
   A mark's watermark is either the previous event's time (a stale
   punctuation the engine must coalesce away) or strictly inside the
   gap (a live one that fires pending instances mid-batch); neither can
   make the following event late.  Deterministic in (hash, batch,
   events), so shrunk and replayed scenarios rebuild the exact same
   batch boundaries. *)
let batches_of_events ~hash ~batch evs =
  let state = ref (hash land max_int) in
  let rand bound =
    state := ((!state * 25214903917) + 11) land max_int;
    !state lsr 13 mod bound
  in
  let fresh_size () = 1 + rand (max 1 batch) in
  let out = ref [] in
  let cur = ref (Batch.create ()) in
  let budget = ref (fresh_size ()) in
  let prev = ref min_int in
  List.iter
    (fun e ->
      if !prev > min_int && e.Event.time > !prev && rand 3 = 0 then
        Batch.push_punct !cur
          (if rand 2 = 0 then !prev
           else !prev + 1 + rand (e.Event.time - !prev));
      Batch.push !cur e;
      prev := e.Event.time;
      decr budget;
      if !budget <= 0 then begin
        out := !cur :: !out;
        cur := Batch.create ();
        budget := fresh_size ()
      end)
    evs;
  if not (Batch.is_empty !cur) then out := !cur :: !out;
  List.rev !out

let scenario_hash (sc : Scenario.t) =
  Hashtbl.hash (Scenario.to_repro sc) land max_int

(* Push [events] into a sink: one [feed] per event, or — [batched] — as
   the deterministic batches (punctuation marks included) drawn from
   [hash]. *)
let ingest ~batched ~hash (sc : Scenario.t) events ~feed ~feed_batch =
  if batched then
    List.iter feed_batch
      (batches_of_events ~hash ~batch:sc.Scenario.batch events)
  else List.iter feed events

(* One simulated process's spill pool, closed when that process ends;
   [None] when the stack is not spilled. *)
let with_pool ~spilled (sc : Scenario.t) f =
  if not spilled then f None
  else
    let pool = Fw_spill.Pool.create ~budget:sc.Scenario.budget () in
    Fun.protect
      ~finally:(fun () -> Fw_spill.Pool.close pool)
      (fun () -> f (Some pool))

(* --- crash-restart internals ---------------------------------------- *)

type crash_params = { every : int; crash_at : int; torn_bytes : int option }

(* Crash geometry derived deterministically from the scenario text, so
   a replayed or shrunk scenario reproduces the exact same crash:
   checkpoint cadence ~ a third of the stream, death somewhere inside
   it, and a torn snapshot write on a quarter of the scenarios. *)
let crash_params (sc : Scenario.t) =
  let n = List.length (fed_events sc) in
  let h = scenario_hash sc in
  {
    every = 1 + (h mod max 1 (n / 3));
    crash_at = 1 + (h / 13 mod max 1 n);
    torn_bytes = (if h mod 4 = 0 then Some (1 + (h / 53 mod 8)) else None);
  }

type first_outcome = Crashed | Completed of Checkpoint.t

(* Run the pre-crash process into [dir]: checkpointing pipeline, fault
   plan armed.  [Crashed] leaves the directory exactly as the dead
   process would have (snapshots, flushed log, possibly a torn newest
   snapshot); [Completed] only happens on an empty stream.  A crash or
   any other exception abandons the pipeline, so none leaks its
   channels.  Batched ingestion lands checkpoints and the injected
   death mid-batch.  The
   pool is scratch (snapshots are self-contained), so the crash
   legitimately leaves it behind like a dead process would. *)
let crash_first_process ?(batched = false) ?spill ~dir ~plan mode
    (sc : Scenario.t) =
  let p = crash_params sc in
  let fault =
    Fw_snap.Fault.create ~crash_at_event:p.crash_at ?torn_bytes:p.torn_bytes ()
  in
  let cp =
    Checkpoint.create ~dir ~every:p.every ~fault ~mode ?spill (plan_of plan sc)
  in
  try
    ingest ~batched ~hash:(scenario_hash sc) sc (fed_events sc)
      ~feed:(Checkpoint.feed cp) ~feed_batch:(Checkpoint.feed_batch cp);
    Completed cp
  with e ->
    Checkpoint.abandon cp;
    (match e with Fw_snap.Fault.Crash _ -> Crashed | _ -> raise e)

let fresh_temp_dir () =
  let base = Filename.temp_file "fwsnap" ".d" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* --- served stacks --------------------------------------------------- *)

(* SQL text for a sub-query over a subset of the scenario's windows:
   the wire format the query server registers.  The window definitions
   go through the parser/printer round trip ([Ast.def_of_window] /
   [Printer.window_def]), which the qcheck suite pins as exact. *)
let sql_of_windows (sc : Scenario.t) windows =
  Printf.sprintf "SELECT %s(value) FROM input GROUP BY key, WINDOWS(%s)"
    (Fw_agg.Aggregate.to_string sc.Scenario.agg)
    (String.concat ", "
       (List.map
          (fun w ->
            Printf.sprintf "WINDOW(%s)"
              (Fw_sql.Printer.window_def (Fw_sql.Ast.def_of_window w)))
          windows))

(* Register overlapping sub-queries of the scenario's window set with
   one in-process query server in [mode], feed the shared stream in two
   ingests, insist that each query's CSV body polled between them plus
   the one polled from that cursor after close is the CSV of its whole
   tap, and that every query's tap is byte-identical to an independent
   single-query run of its own SQL text in the same mode — the server's
   core promise: sharing (or degrading) never changes a single float
   bit of anyone's answer.  The full-set query doubles as the path's
   row result, so the harness also diffs the served output against
   every other execution path. *)
let served_rows mode (sc : Scenario.t) =
  let module Server = Fw_serve.Server in
  let horizon = sc.Scenario.horizon in
  let windows = Window.dedup sc.Scenario.windows in
  let n = List.length windows in
  let subsets =
    let candidates =
      [ windows ]
      @ (if n > 1 then [ [ List.hd windows ] ] else [])
      @ if n > 2 then [ List.filteri (fun i _ -> i >= n / 2) windows ] else []
    in
    let rec dedup seen = function
      | [] -> []
      | s :: tl ->
          if List.mem s seen then dedup seen tl else s :: dedup (s :: seen) tl
    in
    dedup [] candidates
  in
  let cfg =
    {
      Server.default_config with
      eta = sc.Scenario.eta;
      incremental = mode = Stream_exec.Incremental;
    }
  in
  let server =
    match Server.create cfg with
    | Ok s -> s
    | Error e -> failwith ("server creation failed: " ^ e)
  in
  let ids =
    List.map
      (fun ws ->
        let text = sql_of_windows sc ws in
        match Server.register server ~tenant:"fuzz" text with
        | Ok r -> (r.Server.r_id, text)
        | Error rej ->
            failwith
              (Printf.sprintf "registration of %S refused: %s" text
                 (Server.reject_message rej)))
      subsets
  in
  let ok = function
    | Ok v -> v
    | Error rej -> failwith (Server.reject_message rej)
  in
  (* two ingests, cut between distinct event times, with every tap
     polled as CSV in between and again from that cursor after close *)
  let events = fed_events sc in
  let first, second =
    match List.nth_opt events (List.length events / 2) with
    | Some mid ->
        List.partition (fun e -> e.Event.time < mid.Event.time) events
    | None -> (events, [])
  in
  let body_tail body =
    let h = String.length Fw_engine.Csv_io.rows_header in
    String.sub body h (String.length body - h)
  in
  ignore (ok (Server.feed server first));
  let polled =
    List.map
      (fun (id, _) ->
        ( body_tail (ok (Server.rows_csv server id ~from:0)),
          List.length (ok (Server.rows_from server id ~from:0)) ))
      ids
  in
  ignore (ok (Server.feed server second));
  ok (Server.close server ~horizon);
  let result = ref [] in
  List.iteri
    (fun i (id, text) ->
      let tap = ok (Server.rows_from server id ~from:0) in
      let body, cursor = List.nth polled i in
      let body = body ^ body_tail (ok (Server.rows_csv server id ~from:cursor)) in
      if body <> body_tail (Fw_engine.Csv_io.rows_to_csv tap) then
        failwith
          (Printf.sprintf
             "served query %d (%s): the polled CSV bodies are not the CSV \
              of its tap"
             id text);
      let standalone =
        match Fw_sql.Compile.compile ~eta:sc.Scenario.eta text with
        | Ok c ->
            Stream_exec.run ~mode c.Fw_sql.Compile.outcome.Rewrite.plan
              ~horizon sc.Scenario.events
        | Error e -> failwith ("standalone compile failed: " ^ e)
      in
      let served = Row.sort tap in
      if served <> standalone then
        failwith
          (Printf.sprintf
             "served query %d (%s) rows are not byte-identical to its \
              independent run's (%d vs %d rows)"
             id text (List.length served) (List.length standalone));
      if i = 0 then result := served)
    ids;
  !result

(* --- the stack composer ---------------------------------------------- *)

(* Every stack's promise, stronger than the harness's tolerant multiset
   check: rows byte-identical (float rounding included) and cost-model
   counters exactly equal to the plain per-event engine run of the same
   plan and mode.  A counter mismatch raises because row equality alone
   would miss silently double-charged or lost work. *)
let require_identical ~plan mode (sc : Scenario.t) (rows, metrics) =
  let m0 = Metrics.create () in
  let rows0 =
    Stream_exec.run ~metrics:m0 ~mode (plan_of plan sc)
      ~horizon:sc.Scenario.horizon sc.Scenario.events
  in
  let fail fmt = Printf.ksprintf failwith fmt in
  if rows <> rows0 then
    fail "rows are not byte-identical to the plain run's (%d vs %d rows)"
      (List.length rows) (List.length rows0);
  if Metrics.ingested m0 <> Metrics.ingested metrics then
    fail "ingest counter diverged: %d plain vs %d" (Metrics.ingested m0)
      (Metrics.ingested metrics);
  let pw m =
    String.concat " "
      (List.map
         (fun (w, n) -> Printf.sprintf "%s=%d" (Window.to_string w) n)
         (Metrics.per_window m))
  in
  if pw m0 <> pw metrics then
    fail "per-window counters diverged: [%s] plain vs [%s]" (pw m0)
      (pw metrics);
  rows

(* Run one stack: one spill pool per simulated process, per-event or
   batched ingestion, and the sink driving the run.  The checkpointed
   sink is two processes — the one that dies and the one that recovers
   from its directory, whose restarted ingestion draws batch boundaries
   from a distinct hash stream. *)
let stack_rows ~plan ~sink ~mode ~batched ~spilled (sc : Scenario.t) =
  let exec_plan = plan_of plan sc and horizon = sc.Scenario.horizon in
  let ingest = ingest ~batched sc in
  match sink with
  | Served -> served_rows mode sc
  | Engine ->
      let metrics = Metrics.create () in
      let rows =
        with_pool ~spilled sc (fun spill ->
            let exec = Stream_exec.create ~metrics ~mode ?spill exec_plan in
            ingest ~hash:(scenario_hash sc) (fed_events sc)
              ~feed:(Stream_exec.feed exec)
              ~feed_batch:(Stream_exec.feed_batch exec);
            Stream_exec.close exec ~horizon)
      in
      (* the plain run is the baseline itself *)
      if batched || spilled then
        require_identical ~plan mode sc (rows, metrics)
      else rows
  | Checkpointed ->
      let dir = fresh_temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let first =
            with_pool ~spilled sc (fun spill ->
                match crash_first_process ~batched ?spill ~dir ~plan mode sc with
                | Completed cp ->
                    Fun.protect ~finally:(fun () -> Checkpoint.abandon cp)
                      (fun () ->
                        Some (Checkpoint.close cp ~horizon, Checkpoint.metrics cp))
                | Crashed -> None)
          in
          let outcome =
            match first with
            | Some r -> r
            | None ->
                with_pool ~spilled sc (fun spill ->
                    match Fw_snap.Recover.load ~dir ~mode ?spill exec_plan with
                    | Error m -> failwith ("recovery failed: " ^ m)
                    | Ok r ->
                        let cp = r.Fw_snap.Recover.checkpoint in
                        let k = (crash_params sc).crash_at in
                        Fun.protect ~finally:(fun () -> Checkpoint.abandon cp)
                          (fun () ->
                            ingest
                              ~hash:(scenario_hash sc lxor 0x9e3779b9)
                              (List.filteri (fun i _ -> i >= k) (fed_events sc))
                              ~feed:(Checkpoint.feed cp)
                              ~feed_batch:(Checkpoint.feed_batch cp);
                            ( Checkpoint.close cp ~horizon,
                              r.Fw_snap.Recover.metrics )))
          in
          require_identical ~plan mode sc outcome)

let rows path (sc : Scenario.t) =
  let horizon = sc.Scenario.horizon in
  let events = sc.Scenario.events in
  try
    Ok
      (match path with
      | Reference ->
          Fw_engine.Reference.run sc.Scenario.agg sc.Scenario.windows ~horizon
            events
      | Sliced (mode, slicing) ->
          (Exec.run sc.Scenario.agg mode slicing sc.Scenario.windows ~horizon
             events)
            .Exec.rows
      | Stack { plan; sink; mode; batched; spilled } ->
          stack_rows ~plan ~sink ~mode ~batched ~spilled sc)
  with exn -> Error (Printexc.to_string exn)
