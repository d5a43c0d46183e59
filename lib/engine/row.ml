open Fw_window

type t = {
  window : Window.t;
  interval : Interval.t;
  key : string;
  value : float;
}

(* The rows of one fire share their window and interval values, so the
   physical tests settle those fields without a call. *)
let compare a b =
  match
    if a.window == b.window then 0 else Window.compare a.window b.window
  with
  | 0 -> (
      match
        if a.interval == b.interval then 0
        else Interval.compare a.interval b.interval
      with
      | 0 -> (
          match String.compare a.key b.key with
          | 0 -> Float.compare a.value b.value
          | c -> c)
      | c -> c)
  | c -> c

let sort rows = List.sort compare rows

let same_slot a b =
  Window.equal a.window b.window
  && Interval.equal a.interval b.interval
  && String.equal a.key b.key

let equal_sets xs ys =
  let xs = sort xs and ys = sort ys in
  List.length xs = List.length ys
  && List.for_all2
       (fun a b -> same_slot a b && Fw_agg.Combine.equal_result a.value b.value)
       xs ys

let diff xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], [] -> List.rev acc
    | x :: xs', [] -> go xs' [] ((Some x, None) :: acc)
    | [], y :: ys' -> go [] ys' ((None, Some y) :: acc)
    | x :: xs', y :: ys' ->
        if same_slot x y then
          if Fw_agg.Combine.equal_result x.value y.value then go xs' ys' acc
          else go xs' ys' ((Some x, Some y) :: acc)
        else if compare x y < 0 then go xs' ys ((Some x, None) :: acc)
        else go xs ys' ((None, Some y) :: acc)
  in
  go (sort xs) (sort ys) []

let pp ppf { window; interval; key; value } =
  Format.fprintf ppf "%a%a %s=%g" Window.pp window Interval.pp interval key
    value
