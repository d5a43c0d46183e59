open Fw_window
module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge
module Registry = Fw_obs.Registry

type node_stats = {
  rows_in : Counter.t;
  rows_out : Counter.t;
  fires : Counter.t;
  pane_flushes : Counter.t;
  swag_evictions : Counter.t;
  fire_ns : Fw_obs.Histogram.t;
  fire_delay_ns : Fw_obs.Histogram.t;
  mutable activations : int;
}

type t = {
  registry : Registry.t;
  ingested_c : Counter.t;
  wm_ticks : Gauge.t;
  wm_advance_ts : Gauge.t;
  mutable processed : Counter.t Window.Map.t;
  nodes : (int, node_stats) Hashtbl.t;
  mutable trace : Fw_obs.Trace.t option;
}

let create () =
  let registry = Registry.create () in
  {
    registry;
    ingested_c =
      Registry.counter registry "engine_ingested_events_total"
        ~help:"Events accepted by the source";
    wm_ticks =
      Registry.gauge registry "engine_watermark_ticks"
        ~help:"Event-time watermark (ticks)";
    wm_advance_ts =
      Registry.gauge registry "engine_watermark_advance_ts_ns"
        ~help:
          "Wall clock (ns) of the last watermark advance; the meter \
           derives engine_watermark_lag_ns from it";
    processed = Window.Map.empty;
    nodes = Hashtbl.create 16;
    trace = None;
  }

let registry t = t.registry

(* --- legacy counter API -------------------------------------------- *)

let window_counter t w =
  match Window.Map.find_opt w t.processed with
  | Some c -> c
  | None ->
      let c =
        Registry.counter t.registry "window_processed_items_total"
          ~labels:[ ("window", Window.to_string w) ]
          ~help:"Items folded into fired instances (the cost model's count)"
      in
      t.processed <- Window.Map.add w c t.processed;
      c

let record t w n = Counter.add (window_counter t w) n

type items = { m : t; w : Window.t; mutable cell : Counter.t option }

let items m w = { m; w; cell = None }

let add_items it n =
  match it.cell with
  | Some c -> Counter.add c n
  | None ->
      let c = window_counter it.m it.w in
      it.cell <- Some c;
      Counter.add c n
let record_ingest t n = Counter.add t.ingested_c n

let record_watermark t ~wm ~at_ns =
  Gauge.set t.wm_ticks (float_of_int wm);
  Gauge.set t.wm_advance_ts (float_of_int at_ns)

let processed t w =
  match Window.Map.find_opt w t.processed with
  | Some c -> Counter.get c
  | None -> 0

let total_processed t =
  Window.Map.fold (fun _ c acc -> acc + Counter.get c) t.processed 0

let ingested t = Counter.get t.ingested_c

let per_window t =
  List.map (fun (w, c) -> (w, Counter.get c)) (Window.Map.bindings t.processed)

let pp ppf t =
  Format.fprintf ppf "@[<v>ingested: %d@," (ingested t);
  List.iter
    (fun (w, n) -> Format.fprintf ppf "%a processed %d@," Window.pp w n)
    (per_window t);
  Format.fprintf ppf "total processed: %d@]" (total_processed t)

(* --- observability layer ------------------------------------------- *)

let node t ~id ~kind ?window () =
  match Hashtbl.find_opt t.nodes id with
  | Some ns -> ns
  | None ->
      let labels =
        [ ("node", string_of_int id); ("kind", kind) ]
        @
        match window with
        | None -> []
        | Some w -> [ ("window", Window.to_string w) ]
      in
      let c name help = Registry.counter t.registry name ~labels ~help in
      let ns =
        {
          rows_in = c "node_rows_in_total" "Items delivered to the node";
          rows_out = c "node_rows_out_total" "Items forwarded or emitted";
          fires = c "node_fires_total" "Window instances fired";
          pane_flushes = c "node_pane_flushes_total" "Panes sealed";
          swag_evictions =
            c "node_swag_evictions_total" "Sliding-queue entries evicted";
          fire_ns =
            Registry.histogram t.registry "node_fire_ns" ~labels
              ~help:"Sampled activation latency (ns)";
          fire_delay_ns =
            Registry.histogram t.registry "node_fire_delay_ns" ~labels
              ~help:
                "Sampled watermark-to-fire delay (ns): wall time from \
                 the triggering watermark broadcast to the activation";
          activations = 0;
        }
      in
      Hashtbl.replace t.nodes id ns;
      ns

let fallback_metric = "engine_incremental_fallbacks_total"

let record_fallback t ~id ~window ~reason =
  Counter.inc
    (Registry.counter t.registry fallback_metric
       ~labels:
         [
           ("node", string_of_int id);
           ("window", Window.to_string window);
           ("reason", reason);
         ]
       ~help:"Incremental-mode nodes running the per-instance fallback")

let fallbacks t =
  List.filter_map
    (fun (e : Registry.entry) ->
      if e.Registry.name <> fallback_metric then None
      else
        match e.Registry.metric with
        | Registry.Counter c ->
            let label k =
              Option.value ~default:"" (List.assoc_opt k e.Registry.labels)
            in
            Some
              ( int_of_string (label "node"),
                label "window",
                label "reason",
                Counter.get c )
        | _ -> None)
    (Registry.entries t.registry)
  |> List.sort compare

let set_trace t tr = t.trace <- Some tr
let trace t = t.trace
let snapshot_json t = Fw_obs.Export.snapshot_json ?trace:t.trace t.registry
let prometheus t = Fw_obs.Export.prometheus t.registry
