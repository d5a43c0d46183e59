(** Metrics registry: named, labelled counters / gauges / histograms.

    Interning happens once, at registration; the returned handle is the
    metric's single mutable cell, so hot-path updates never touch the
    registry again.  Registering the same (name, labels) twice returns
    the existing handle; registering it with a different metric type
    raises [Invalid_argument].

    Names follow the Prometheus convention ([snake_case], unit suffix,
    [_total] for counters); labels are [(key, value)] pairs.  Listing
    is sorted by name then labels, so every export is stable.

    {b Threading.}  The registry table itself is domain-safe: interning
    ({!counter}/{!gauge}/{!histogram}), {!find} and {!entries} are
    serialized by an internal mutex, so one domain may register into a
    registry while another (the {!Scrape} server) lists it.  The
    returned metric {e cells} are deliberately not locked: an increment
    stays one load/add/store.  The supported multicore pattern is
    therefore single-writer-per-cell: each cell is only ever mutated by
    one domain, and readers on other domains see whole (if slightly
    stale) values. *)

type t

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

type entry = {
  name : string;
  labels : (string * string) list;  (** sorted by key *)
  help : string;
  metric : metric;
}

val create : unit -> t

val counter : t -> ?labels:(string * string) list -> ?help:string -> string -> Counter.t
val gauge : t -> ?labels:(string * string) list -> ?help:string -> string -> Gauge.t
val histogram : t -> ?labels:(string * string) list -> ?help:string -> string -> Histogram.t

val entries : t -> entry list
(** Sorted by (name, labels). *)

val find : t -> ?labels:(string * string) list -> string -> metric option

val counter_value : t -> ?labels:(string * string) list -> string -> int option
(** Convenience for tests and reports. *)
