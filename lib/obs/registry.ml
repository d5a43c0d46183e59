type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type entry = {
  name : string;
  labels : (string * string) list;
  help : string;
  metric : metric;
}

(* The table is the only piece of a registry that several domains may
   touch at once (the engine interning metrics while a scrape domain
   lists them); a plain Hashtbl corrupts under that race, so every
   table access goes through [mu].  The returned handles are NOT
   guarded — a metric cell stays single-writer (see the .mli's
   threading contract). *)
type t = {
  tbl : (string * (string * string) list, entry) Hashtbl.t;
  mu : Mutex.t;
}

let create () = { tbl = Hashtbl.create 64; mu = Mutex.create () }

let canon_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register t ~labels ~help name make same =
  let labels = canon_labels labels in
  let key = (name, labels) in
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some e -> (
          match same e.metric with
          | Some cell -> cell
          | None ->
              invalid_arg
                (Printf.sprintf
                   "Fw_obs.Registry: %s already registered as a %s" name
                   (kind_name e.metric)))
      | None ->
          let cell, metric = make () in
          Hashtbl.replace t.tbl key { name; labels; help; metric };
          cell)

let counter t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () -> let c = Counter.make () in (c, Counter c))
    (function Counter c -> Some c | _ -> None)

let gauge t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () -> let g = Gauge.make () in (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)

let histogram t ?(labels = []) ?(help = "") name =
  register t ~labels ~help name
    (fun () -> let h = Histogram.create () in (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)

let entries t =
  let all =
    Mutex.protect t.mu (fun () ->
        Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])
  in
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    all

let find t ?(labels = []) name =
  let key = (name, canon_labels labels) in
  Option.map
    (fun e -> e.metric)
    (Mutex.protect t.mu (fun () -> Hashtbl.find_opt t.tbl key))

let counter_value t ?labels name =
  match find t ?labels name with
  | Some (Counter c) -> Some (Counter.get c)
  | _ -> None
