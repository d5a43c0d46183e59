(* The metrics scrape endpoint, now a thin handler over the shared
   HTTP core ({!Httpd}): the transport hardening — bounded reads,
   SIGPIPE suppression, per-request catch-all 500, bare-LF heads,
   idempotent stop — lives there, shared with the query server.

   Concurrency argument (unchanged from when the plumbing was inline):
   the accept domain only ever (a) lists the registry through its
   mutex, (b) racily reads metric cells the engine writes —
   single-word reads of monotone values, the OCaml memory model
   returns some written value, never a torn one — and (c) writes the
   gauges its own meter derives, of which it is the only writer.  So a
   scrape can run concurrently with the engine's hot path, interning
   included. *)

type t = { httpd : Httpd.t; scrapes : Counter.t }

let handler ~registry ~meter ~healthy (req : Httpd.request) =
  match (req.Httpd.meth, req.Httpd.path) with
  | "GET", "/metrics" ->
      (match meter with Some m -> Meter.sample m | None -> ());
      Httpd.ok
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (Export.prometheus registry)
  | "GET", "/metrics.json" ->
      (match meter with Some m -> Meter.sample m | None -> ());
      Httpd.ok ~content_type:"application/json"
        (Export.snapshot_json ~ts_ns:(Clock.now_ns ()) registry)
  | "GET", "/healthz" ->
      if healthy () then Httpd.ok "ok\n"
      else Httpd.response ~status:"503 Service Unavailable" "unhealthy\n"
  | "GET", _ -> Httpd.not_found "not found\n"
  | _ -> Httpd.bad_request "bad request\n"

let start ?host ?meter ?(healthy = fun () -> true) ~port registry =
  let scrapes =
    Registry.counter registry "scrape_requests_total"
      ~help:"HTTP requests answered by the scrape endpoint"
  in
  let httpd =
    Httpd.start ?host ~port
      ~on_request:(fun () -> Counter.inc scrapes)
      (handler ~registry ~meter ~healthy)
  in
  { httpd; scrapes }

let port t = Httpd.port t.httpd
let stop t = Httpd.stop t.httpd
