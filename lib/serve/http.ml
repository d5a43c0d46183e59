module Httpd = Fw_obs.Httpd
module Export = Fw_obs.Export
module Meter = Fw_obs.Meter
module Clock = Fw_obs.Clock
module Registry = Fw_obs.Registry
module Counter = Fw_obs.Counter
module Csv_io = Fw_engine.Csv_io

let status_of_reject = function
  | Server.Closed -> "409 Conflict"
  | Server.Admission _ -> "429 Too Many Requests"
  | Server.Bad_request _ -> "400 Bad Request"
  | Server.Unknown_query _ -> "404 Not Found"

let reject r =
  Httpd.response ~status:(status_of_reject r)
    (Server.reject_message r ^ "\n")

let json body = Httpd.ok ~content_type:"application/json" body

let json_of_registered (r : Server.registered) =
  Printf.sprintf
    {|{"id":%d,"cached":%b,"shared":%b,"group":%d,"windows":%d}|}
    r.Server.r_id r.Server.r_cached r.Server.r_shared r.Server.r_group
    r.Server.r_windows

let json_of_spill = function
  | None -> "null"
  | Some (s : Server.spill_info) ->
      Printf.sprintf
        {|{"budget":%d,"resident_bytes":%d,"resident_keys":%d,"disk_bytes":%d}|}
        s.Server.s_budget s.Server.s_resident_bytes s.Server.s_resident_keys
        s.Server.s_disk_bytes

let json_of_info (i : Server.query_info) =
  Printf.sprintf
    {|{"id":%d,"tenant":%s,"text":%s,"group":%d,"shared":%b,"windows":%d,"rows":%d,"spill":%s}|}
    i.Server.i_id
    (Export.json_string i.Server.i_tenant)
    (Export.json_string i.Server.i_text)
    i.Server.i_group i.Server.i_shared i.Server.i_windows i.Server.i_rows
    (json_of_spill i.Server.i_spill)

let segments path =
  List.filter (fun s -> s <> "") (String.split_on_char '/' path)

let int_param req name ~default =
  match List.assoc_opt name req.Httpd.query with
  | Some v -> (
      match int_of_string_opt v with Some i -> Some i | None -> None)
  | None -> Some default

let required_int_param req name =
  match List.assoc_opt name req.Httpd.query with
  | Some v -> int_of_string_opt v
  | None -> None

let handler server meter (req : Httpd.request) =
  match (req.Httpd.meth, segments req.Httpd.path) with
  | "POST", [ "query" ] -> (
      let tenant =
        match List.assoc_opt "tenant" req.Httpd.query with
        | Some t when t <> "" -> t
        | _ -> "default"
      in
      match Server.register server ~tenant req.Httpd.body with
      | Ok r -> json (json_of_registered r)
      | Error r -> reject r)
  | "DELETE", [ "query"; id ] -> (
      match int_of_string_opt id with
      | None -> Httpd.bad_request "bad query id\n"
      | Some id -> (
          match Server.unregister server id with
          | Ok () -> json (Printf.sprintf {|{"unregistered":%d}|} id)
          | Error r -> reject r))
  | "GET", [ "query"; id ] -> (
      match int_of_string_opt id with
      | None -> Httpd.bad_request "bad query id\n"
      | Some id -> (
          match Server.query_info server id with
          | Ok i -> json (json_of_info i)
          | Error r -> reject r))
  | "GET", [ "query"; id; "rows" ] -> (
      match (int_of_string_opt id, int_param req "from" ~default:0) with
      | None, _ -> Httpd.bad_request "bad query id\n"
      | _, None -> Httpd.bad_request "bad from cursor\n"
      | Some id, Some from -> (
          match Server.rows_csv server id ~from with
          | Ok body -> Httpd.ok ~content_type:"text/csv" body
          | Error r -> reject r))
  | "GET", [ "queries" ] ->
      json
        ("["
        ^ String.concat "," (List.map json_of_info (Server.list_queries server))
        ^ "]")
  | "POST", [ "ingest" ] -> (
      match Csv_io.parse_events req.Httpd.body with
      | Error e -> Httpd.bad_request (e ^ "\n")
      | Ok events -> (
          match Server.feed server events with
          | Ok n -> json (Printf.sprintf {|{"fed":%d}|} n)
          | Error r -> reject r))
  | "POST", [ "advance" ] -> (
      match required_int_param req "to" with
      | None -> Httpd.bad_request "advance needs ?to=<time>\n"
      | Some time -> (
          match Server.advance server time with
          | Ok () -> json (Printf.sprintf {|{"advanced":%d}|} time)
          | Error r -> reject r))
  | "POST", [ "close" ] -> (
      match required_int_param req "horizon" with
      | None -> Httpd.bad_request "close needs ?horizon=<time>\n"
      | Some horizon -> (
          match Server.close server ~horizon with
          | Ok () -> json (Printf.sprintf {|{"closed":%d}|} horizon)
          | Error r -> reject r))
  | "POST", [ "checkpoint" ] -> (
      match Server.checkpoint server with
      | Ok () -> json {|{"checkpointed":true}|}
      | Error r -> reject r)
  | "GET", [ "metrics" ] ->
      (match meter with Some m -> Meter.sample m | None -> ());
      Httpd.ok
        ~content_type:"text/plain; version=0.0.4; charset=utf-8"
        (Export.prometheus (Server.registry server))
  | "GET", [ "metrics.json" ] ->
      (match meter with Some m -> Meter.sample m | None -> ());
      json (Export.snapshot_json ~ts_ns:(Clock.now_ns ()) (Server.registry server))
  | "GET", [ "healthz" ] ->
      if Server.is_closed server then
        Httpd.response ~status:"503 Service Unavailable" "closed\n"
      else Httpd.ok "ok\n"
  | "GET", _ -> Httpd.not_found "not found\n"
  | _ -> Httpd.not_found "not found\n"

type t = { httpd : Httpd.t }

let start ?host ~port server =
  let registry = Server.registry server in
  let meter = Meter.create registry in
  let requests =
    Registry.counter registry "serve_http_requests_total"
      ~help:"HTTP requests answered by the query server"
  in
  let httpd =
    Httpd.start ?host ~port
      ~on_request:(fun () -> Counter.inc requests)
      (handler server (Some meter))
  in
  { httpd }

let port t = Httpd.port t.httpd
let stop t = Httpd.stop t.httpd
