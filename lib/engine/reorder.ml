module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge

type stats = { buffered_peak : int; released : int; dropped_late : int }

module Time_map = Map.Make (Int)

type t = {
  lateness : int;
  (* registry cells mirroring the [stats] record *)
  released_c : Counter.t;
  dropped_c : Counter.t;
  peak_g : Gauge.t;
  mutable buffer : Event.t list Time_map.t;  (* newest first per time *)
  mutable buffered : int;
  mutable peak : int;
  mutable released : int;
  mutable dropped : int;
  mutable frontier : int;  (* all times < frontier already released *)
  mutable max_seen : int;
}

let create ?(registry = Fw_obs.Registry.create ()) ~lateness () =
  if lateness < 0 then invalid_arg "Reorder.create: negative lateness";
  {
    lateness;
    released_c =
      Fw_obs.Registry.counter registry "reorder_released_total"
        ~help:"Events released downstream in timestamp order";
    dropped_c =
      Fw_obs.Registry.counter registry "reorder_dropped_late_total"
        ~help:"Events dropped behind the released frontier";
    peak_g =
      Fw_obs.Registry.gauge registry "reorder_buffered_peak"
        ~help:"High-water mark of the reorder buffer";
    buffer = Time_map.empty;
    buffered = 0;
    peak = 0;
    released = 0;
    dropped = 0;
    frontier = 0;
    max_seen = 0;
  }

(* Pop buffered times below [bound] from the minimum of the map, each
   time's events in arrival order. *)
let rec release t out bound =
  match Time_map.min_binding_opt t.buffer with
  | Some (time, events) when time < bound ->
      t.buffer <- Time_map.remove time t.buffer;
      let n = List.length events in
      List.iter (Batch.push out) (List.rev events);
      t.buffered <- t.buffered - n;
      t.released <- t.released + n;
      Counter.add t.released_c n;
      release t out bound
  | _ -> ()

let push t out e =
  let time = e.Event.time in
  if time < t.frontier then begin
    t.dropped <- t.dropped + 1;
    Counter.inc t.dropped_c
  end
  else begin
    t.buffer <-
      Time_map.update time
        (function None -> Some [ e ] | Some es -> Some (e :: es))
        t.buffer;
    t.buffered <- t.buffered + 1;
    if t.buffered > t.peak then begin
      t.peak <- t.buffered;
      Gauge.set t.peak_g (float_of_int t.peak)
    end;
    if time > t.max_seen then begin
      t.max_seen <- time;
      let bound = time - t.lateness in
      if bound > t.frontier then begin
        release t out bound;
        t.frontier <- bound;
        Batch.push_punct out bound
      end
    end
  end

let flush t out = release t out max_int

let stats t =
  { buffered_peak = t.peak; released = t.released; dropped_late = t.dropped }
