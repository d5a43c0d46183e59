external now_ns : unit -> int = "fwbench_mono_ns" [@@noalloc]

let since ns = now_ns () - ns

(* Durations are reported in reference-host time: [scale] is set per
   segment from a calibration kernel (see [Common.calibrate]). *)
let scale = ref 1.0

(* [time f] runs [f] and returns its result with its duration in
   reference-host ns. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, int_of_float (float_of_int (now_ns () - t0) *. !scale))
