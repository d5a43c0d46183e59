(* Adaptive re-optimization demo (the paper's Section-6 future work).

     dune exec examples/adaptive_rates.exe

   The stream's rate ramps 1 -> 8 -> 2 events/tick.  The controller
   tracks the observed rate per common period, re-optimizes when it
   leaves the hysteresis band, and hands execution over to the new plan
   at a period boundary with a drain overlap — output rows stay exactly
   equal to the reference computation throughout. *)

open Fw_window
module Adaptive = Factor_windows.Adaptive
module Reference = Fw_engine.Reference
module Row = Fw_engine.Row

(* A window set whose optimal structure depends on the rate. *)
let windows =
  [
    Window.make ~range:12 ~slide:6;
    Window.make ~range:12 ~slide:3;
    Window.make ~range:20 ~slide:10;
    Window.make ~range:32 ~slide:8;
  ]

let period = 480
let horizon = 5 * period

let rate_at t =
  if t < period then 1 else if t < 3 * period then 8 else 2

let events =
  List.concat
    (List.init horizon (fun t ->
         List.init (rate_at t) (fun i ->
             Fw_engine.Event.make ~time:t ~key:"sensor"
               ~value:(float_of_int ((t + (11 * i)) mod 97)))))

let () =
  Printf.printf "windows: %s (common period %d)\n"
    (String.concat " " (List.map Window.to_string windows))
    period;
  Printf.printf "rate profile: 1/tick, then 8/tick, then 2/tick (%d events)\n"
    (List.length events);

  let rows, switches =
    Adaptive.run ~initial_eta:1 Fw_agg.Aggregate.Min windows ~horizon events
  in
  print_endline "\nplan switches:";
  List.iter
    (fun s ->
      Printf.printf
        "  t=%5d: eta %d -> %d; keeping the old plan would cost %d, the new \
         one costs %d\n"
        s.Adaptive.at s.Adaptive.eta_before s.Adaptive.eta_after
        s.Adaptive.cost_before s.Adaptive.cost_after)
    switches;
  if switches = [] then print_endline "  (none)";

  let expected = Reference.run Fw_agg.Aggregate.Min windows ~horizon events in
  Printf.printf "\n%d result rows; equal to the reference computation: %b\n"
    (List.length rows) (Row.equal_sets rows expected)
