(* On-disk artifacts for fuzzing failures.

   A failure's one-line repro is enough to replay it, but diagnosing
   *why* the paths diverged usually starts with "what did each engine
   actually do?".  [dump] re-executes the shrunk scenario through the
   two streaming paths with a fresh metrics registry and an attached
   span trace, and writes the observability snapshots next to the
   repro so the whole picture travels with the seed. *)

module Plan = Fw_plan.Plan
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Sys.mkdir dir 0o755
    with Sys_error _ ->
      (* mkdir -p for one missing parent: enough for `out/artifacts` *)
      let parent = Filename.dirname dir in
      if not (Sys.file_exists parent) then Sys.mkdir parent 0o755;
      Sys.mkdir dir 0o755

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

(* Run the shrunk scenario through one streaming mode, capturing
   metrics + trace.  The scenario may crash an engine (that can be the
   very bug being reported); keep whatever was recorded up to the
   exception. *)
let observed_snapshot ~mode (sc : Scenario.t) =
  let metrics = Metrics.create () in
  Metrics.set_trace metrics (Fw_obs.Trace.create ());
  let crash =
    try
      ignore
        (Stream_exec.run ~metrics ~mode
           (Plan.naive sc.Scenario.agg sc.Scenario.windows)
           ~horizon:sc.Scenario.horizon sc.Scenario.events);
      None
    with exn -> Some (Printexc.to_string exn)
  in
  (Metrics.snapshot_json metrics, crash)

let mode_name = function
  | Stream_exec.Naive -> "naive-stream"
  | Stream_exec.Incremental -> "incremental-stream"

let repro_text (f : Harness.failure) =
  Format.asprintf "%a@." Harness.pp_failure f

let metrics_json (f : Harness.failure) =
  let j = Fw_obs.Export.json_string in
  let path mode =
    let snapshot, crash = observed_snapshot ~mode f.Harness.shrunk in
    Printf.sprintf "%s:{\"snapshot\":%s,\"crash\":%s}"
      (j (mode_name mode))
      snapshot
      (match crash with None -> "null" | Some e -> j e)
  in
  let problems =
    String.concat ","
      (List.map
         (fun (p : Harness.problem) ->
           Printf.sprintf "{\"source\":%s,\"detail\":%s}" (j p.Harness.source)
             (j p.Harness.detail))
         f.Harness.shrunk_problems)
  in
  Printf.sprintf
    "{\"seed\":%d,\"repro\":%s,\"problems\":[%s],\"paths\":{%s,%s}}"
    f.Harness.seed
    (j (Scenario.to_repro f.Harness.shrunk))
    problems
    (path Stream_exec.Naive)
    (path Stream_exec.Incremental)

(* When a checkpointed stack failed, the repro alone replays the bug
   but the *disk state the dead process left behind* is the evidence:
   re-run the shrunk scenario's pre-crash process (same deterministic
   fault plan, same ingestion, same budget) into a sibling directory,
   leaving the snapshot files and the flushed log — torn bytes
   included — next to the repro, so [Recover.load] can be pointed at
   them offline. *)
let crashed_stacks (f : Harness.failure) =
  List.filter
    (fun path ->
      match path with
      | Paths.Stack { sink = Paths.Checkpointed; _ } ->
          List.exists
            (fun (p : Harness.problem) -> p.Harness.source = Paths.name path)
            f.Harness.shrunk_problems
      | _ -> false)
    Paths.all

let dump_precrash ~dir base path (sc : Scenario.t) =
  match path with
  | Paths.Stack { mode; batched; spilled; _ } ->
      let sub =
        Filename.concat dir
          (Printf.sprintf "%s-precrash-%s" base (Paths.name path))
      in
      ensure_dir sub;
      let budget = sc.Scenario.budget in
      let spill =
        if spilled then Some (Fw_spill.Pool.create ~budget ()) else None
      in
      Fun.protect
        ~finally:(fun () -> Option.iter Fw_spill.Pool.close spill)
        (fun () ->
          match Paths.crash_first_process ~batched ?spill ~dir:sub mode sc with
          | Paths.Crashed -> ()
          | Paths.Completed cp ->
              ignore
                (Fw_snap.Checkpoint.close cp ~horizon:sc.Scenario.horizon));
      Sys.readdir sub |> Array.to_list |> List.sort compare
      |> List.map (Filename.concat sub)
  | _ -> []

let dump ~dir (f : Harness.failure) =
  try
    ensure_dir dir;
    let base = Printf.sprintf "seed-%d" f.Harness.seed in
    let repro = Filename.concat dir (base ^ "-repro.txt") in
    let metrics = Filename.concat dir (base ^ "-metrics.json") in
    write_file repro (repro_text f);
    write_file metrics (metrics_json f);
    let precrash =
      List.concat_map
        (fun path -> dump_precrash ~dir base path f.Harness.shrunk)
        (crashed_stacks f)
    in
    Ok ([ repro; metrics ] @ precrash)
  with Sys_error e -> Error e
