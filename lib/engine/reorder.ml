module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge

type stats = { buffered_peak : int; released : int; dropped_late : int }

module Time_map = Map.Make (Int)

(* Registry cells mirroring the [stats] record, so late-data behavior
   shows up in `--stats` exports next to the engine metrics. *)
type obs_cells = {
  released_c : Counter.t;
  dropped_c : Counter.t;
  peak_g : Gauge.t;
}

type t = {
  lateness : int;
  exec : Stream_exec.t;
  obs : obs_cells option;  (* None when ~observe:false *)
  mutable buffer : Event.t list Time_map.t;  (* newest first per time *)
  mutable buffered : int;
  mutable peak : int;
  mutable released : int;
  mutable dropped : int;
  mutable frontier : int;  (* all times < frontier already released *)
  mutable max_seen : int;
}

let make_obs ~observe metrics =
  if not observe then None
  else
    let registry = Metrics.registry metrics in
    Some
      {
        released_c =
          Fw_obs.Registry.counter registry "reorder_released_total"
            ~help:"Events released downstream in timestamp order";
        dropped_c =
          Fw_obs.Registry.counter registry "reorder_dropped_late_total"
            ~help:"Events dropped behind the released frontier";
        peak_g =
          Fw_obs.Registry.gauge registry "reorder_buffered_peak"
            ~help:"High-water mark of the reorder buffer";
      }

let create ~lateness ?mode ?(observe = true) plan ?metrics () =
  if lateness < 0 then invalid_arg "Reorder.create: negative lateness";
  (* Materialize the metrics even when the caller passes none: the
     reorder counters live in the same registry as the engine's. *)
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  let obs = make_obs ~observe metrics in
  {
    lateness;
    exec = Stream_exec.create ~metrics ?mode ~observe plan;
    obs;
    buffer = Time_map.empty;
    buffered = 0;
    peak = 0;
    released = 0;
    dropped = 0;
    frontier = 0;
    max_seen = 0;
  }

let release_until t bound =
  let ready, rest = Time_map.partition (fun time _ -> time < bound) t.buffer in
  t.buffer <- rest;
  Time_map.iter
    (fun _ events ->
      List.iter
        (fun e ->
          Stream_exec.feed t.exec e;
          t.released <- t.released + 1;
          (match t.obs with
          | Some o -> Counter.inc o.released_c
          | None -> ());
          t.buffered <- t.buffered - 1)
        (List.rev events))
    ready;
  if bound > t.frontier then t.frontier <- bound

let feed t e =
  if e.Event.time < t.frontier then begin
    t.dropped <- t.dropped + 1;
    match t.obs with Some o -> Counter.inc o.dropped_c | None -> ()
  end
  else begin
    t.buffer <-
      Time_map.update e.Event.time
        (function None -> Some [ e ] | Some es -> Some (e :: es))
        t.buffer;
    t.buffered <- t.buffered + 1;
    if t.buffered > t.peak then begin
      t.peak <- t.buffered;
      match t.obs with
      | Some o -> Gauge.set o.peak_g (float_of_int t.peak)
      | None -> ()
    end;
    t.max_seen <- max t.max_seen e.Event.time;
    release_until t (t.max_seen - t.lateness)
  end

let close t ~horizon =
  release_until t max_int;
  let rows = Stream_exec.close t.exec ~horizon in
  ( rows,
    { buffered_peak = t.peak; released = t.released; dropped_late = t.dropped }
  )

let run ~lateness ?mode ?observe ?metrics plan ~horizon events =
  let t = create ~lateness ?mode ?observe plan ?metrics () in
  List.iter (fun e -> if e.Event.time < horizon then feed t e) events;
  close t ~horizon
