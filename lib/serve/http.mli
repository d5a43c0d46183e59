(** HTTP facade over {!Server}: the [fwserve] daemon's wire surface,
    running on the shared {!Fw_obs.Httpd} core (handlers execute
    sequentially in the accept domain, which is the server core's
    single-domain contract).

    Endpoints:

    - [POST /query?tenant=T] — register the SQL text in the body;
      JSON reply carries the id, plan-cache and sharing outcome.
    - [DELETE /query/<id>] — unregister.
    - [GET /query/<id>] — status JSON.
    - [GET /query/<id>/rows?from=K] — the tap from cursor [K]
      (default 0), as result-row CSV ({!Server.rows_csv}).
    - [GET /queries] — all registered queries.
    - [POST /ingest] — event CSV body fed to every engine.
    - [POST /advance?to=T] — punctuation.
    - [POST /close?horizon=H] — end of stream.
    - [POST /checkpoint] — force a snapshot (durable mode).
    - [GET /metrics], [/metrics.json], [/healthz] — observability,
      same formats as the {!Fw_obs.Scrape} endpoint.

    Rejections map to 400 (malformed), 404 (unknown query), 409
    (stream closed) and 429 (admission). *)

type t

val start : ?host:string -> port:int -> Server.t -> t
(** Serve until {!stop}; [port] 0 picks an ephemeral port. *)

val port : t -> int
val stop : t -> unit

val handler : Server.t -> Fw_obs.Meter.t option -> Fw_obs.Httpd.request -> Fw_obs.Httpd.response
(** The routing itself, exposed for in-process tests. *)
