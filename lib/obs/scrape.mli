(** Live metrics endpoint: a dependency-free HTTP/1.1 server running
    in a background domain, so a registry can be scraped {e while} the
    run it instruments is executing.

    Endpoints:

    - [GET /metrics] — Prometheus text exposition of the registry
      ({!Export.prometheus});
    - [GET /metrics.json] — JSON snapshot with a [ts_ns] scrape
      timestamp ({!Export.snapshot_json});
    - [GET /healthz] — ["ok"] (200) while [healthy ()] holds, 503
      otherwise.

    When a {!Meter} is attached, every [/metrics] and [/metrics.json]
    request first takes a meter sample, so the derived [*_per_sec]
    rates and [*_lag_ns] freshness gauges are refreshed at scrape
    cadence — the endpoint reports live rates, not just monotone
    totals.

    Requests are answered sequentially in the server's domain
    ([Connection: close], no keep-alive): a metrics scrape is a ~1 Hz
    single-reader workload.  Scraping is safe concurrently with the engine
    updating its cells and interning new metrics — see the threading
    contract in {!Registry} and the argument in DESIGN.md §14. *)

type t

val start :
  ?host:string ->
  ?meter:Meter.t ->
  ?healthy:(unit -> bool) ->
  port:int ->
  Registry.t ->
  t
(** Bind [host] (default ["127.0.0.1"]) : [port] ([0] picks an
    ephemeral port — read it back with {!port}), spawn the accept
    domain and return immediately.  Raises [Unix.Unix_error] if the
    bind fails.  Registers [scrape_requests_total] in the registry. *)

val port : t -> int
(** The bound port (the actual one when [start] was given [0]). *)

val stop : t -> unit
(** Close the listen socket and join the server domain.  Idempotent.
    In-flight requests finish (bounded by a 5 s per-connection
    deadline). *)
