open Fw_window
module Aggregate = Fw_agg.Aggregate

module Key_map = Map.Make (String)

(* Direct-from-definition aggregate evaluation over a raw value list.
   Deliberately written without Fw_agg.Combine (and with different
   arithmetic where possible, e.g. two-pass variance) so that it forms
   an independent oracle for the incremental/merging implementations. *)
let eval agg values =
  let n = List.length values in
  let sum () = List.fold_left ( +. ) 0.0 values in
  match (agg : Aggregate.t) with
  | Min -> List.fold_left Float.min Float.infinity values
  | Max -> List.fold_left Float.max Float.neg_infinity values
  | Count -> float_of_int n
  | Sum -> sum ()
  | Avg -> sum () /. float_of_int n
  | Stdev ->
      (* two-pass population standard deviation *)
      let mean = sum () /. float_of_int n in
      let sq =
        List.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0
          values
      in
      sqrt (sq /. float_of_int n)
  | Median -> (
      let sorted = List.sort Float.compare values in
      match n with
      | 0 -> nan
      | _ ->
          if n land 1 = 1 then List.nth sorted (n / 2)
          else
            let a = List.nth sorted ((n / 2) - 1)
            and b = List.nth sorted (n / 2) in
            (a +. b) /. 2.0)

(* Time-hop evaluator: every instance over the horizon, one scan per
   instance. *)
let hop_rows agg w ~horizon events =
  List.concat_map
    (fun interval ->
      let lo = Interval.lo interval and hi = Interval.hi interval in
      let by_key =
        List.fold_left
          (fun acc e ->
            if e.Event.time >= lo && e.Event.time < hi then
              Key_map.update e.Event.key
                (function
                  | None -> Some [ e.Event.value ]
                  | Some vs -> Some (e.Event.value :: vs))
                acc
            else acc)
          Key_map.empty events
      in
      Key_map.fold
        (fun key values rows ->
          {
            Row.window = w;
            interval = Interval.make ~lo ~hi;
            key;
            value = eval agg (List.rev values);
          }
          :: rows)
        by_key [])
    (Interval.instances_until w ~horizon)

(* Per-key value lists in the engine's feed order ({!Event.sort},
   horizon-clipped) — the coordinate system of the count and session
   families. *)
let per_key ~horizon events =
  let events =
    List.filter (fun e -> e.Event.time < horizon) (Event.sort events)
  in
  List.fold_left
    (fun acc e ->
      Key_map.update e.Event.key
        (function None -> Some [ e ] | Some es -> Some (e :: es))
        acc)
    Key_map.empty events
  |> Key_map.map List.rev

(* Count-hop evaluator: instance [m] of a key covers that key's event
   ordinals [m·s, m·s+r); only fully-seen instances exist. *)
let count_rows agg w ~horizon events =
  let r = Window.range w and s = Window.slide w in
  Key_map.fold
    (fun key evs rows ->
      let values = Array.of_list (List.map (fun e -> e.Event.value) evs) in
      let n = Array.length values in
      let rec go m rows =
        let lo = m * s in
        if lo + r > n then rows
        else
          go (m + 1)
            ({
               Row.window = w;
               interval = Interval.make ~lo ~hi:(lo + r);
               key;
               value = eval agg (Array.to_list (Array.sub values lo r));
             }
            :: rows)
      in
      go 0 rows)
    (per_key ~horizon events) []

(* Session evaluator: cluster each key's events by gap; a session is
   emitted, with interval [first, last+gap), once its deadline falls at
   or before the horizon. *)
let session_rows agg w ~horizon events =
  let gap = Window.gap w in
  Key_map.fold
    (fun key evs rows ->
      let close rows = function
        | None -> rows
        | Some (first, last, values) ->
            if last + gap <= horizon then
              {
                Row.window = w;
                interval = Interval.make ~lo:first ~hi:(last + gap);
                key;
                value = eval agg (List.rev values);
              }
              :: rows
            else rows
      in
      let rows, last_session =
        List.fold_left
          (fun (rows, session) e ->
            match session with
            | Some (first, last, values) when e.Event.time < last + gap ->
                (rows, Some (first, e.Event.time, e.Event.value :: values))
            | _ ->
                ( close rows session,
                  Some (e.Event.time, e.Event.time, [ e.Event.value ]) ))
          (rows, None) evs
      in
      close rows last_session)
    (per_key ~horizon events) []

let window_rows agg w ~horizon events =
  match Window.hop_domain w with
  | Some Window.Time -> hop_rows agg w ~horizon events
  | Some Window.Count -> count_rows agg w ~horizon events
  | None -> session_rows agg w ~horizon events

let run agg windows ~horizon events =
  Row.sort
    (List.concat_map
       (fun w -> window_rows agg w ~horizon events)
       (Window.dedup windows))
