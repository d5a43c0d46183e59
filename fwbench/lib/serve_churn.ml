(* [serve-churn]: what an fwserve operator sees, over real loopback HTTP.
   A default-config server (Naive mode, sharing and factor windows on,
   no state directory, no budget; only the query caps raised) is served
   by Fw_serve.Http.start (traced segments: the same wiring with a
   span-instrumented handler).  100 standing queries over 4 tenants are drawn from 30 texts
   (3 aggregates x 2 filters x chain prefixes of 5 windows, six sharing
   keys).  Each step ingests one CSV body, polls 10 taps in rotation, and
   churns one registration: three in four are a whitespace/case variant
   of a standing text (a plan-cache hit that joins a frozen group as-is),
   one in four a fresh window literal (a cold compile that degrades). *)

open Common
module Server = Fw_serve.Server
module Httpd = Fw_obs.Httpd
module Csv_io = Fw_engine.Csv_io

type config = {
  gen : Gen.spec;
  ingest : int;  (* events per POST /ingest *)
  warm_ticks : int;  (* covers the longest window (H160/20) once *)
  steps : int;  (* timed steps per segment *)
  polls : int;  (* GET rows per step *)
  standing : int;
}

let config =
  {
    gen = { Gen.seed = 0; n_keys = 16; keys = Gen.Zipf 1.0; eta = 64 };
    ingest = 64;
    warm_ticks = 160;
    steps = 200;
    polls = 10;
    standing = 100;
  }

let smoke =
  {
    gen = { Gen.seed = 0; n_keys = 8; keys = Gen.Zipf 1.0; eta = 8 };
    ingest = 32;
    warm_ticks = 160;
    steps = 16;
    polls = 4;
    standing = 36;
  }

let server_config =
  { Server.default_config with Server.max_queries = 256; tenant_quota = 128 }

(* ---- query texts ---- *)

let aggs = [ "SUM"; "MAX"; "AVG" ]
let filters = [ ""; " WHERE value > 50" ]

let chain =
  [
    "TUMBLINGWINDOW(second, 10)";
    "TUMBLINGWINDOW(second, 20)";
    "HOPPINGWINDOW(second, 40, 10)";
    "TUMBLINGWINDOW(second, 80)";
    "HOPPINGWINDOW(second, 160, 20)";
  ]

let text agg filter windows =
  Printf.sprintf "SELECT %s(value) FROM input%s GROUP BY key, WINDOWS(%s)" agg filter
    (String.concat ", " (List.map (Printf.sprintf "WINDOW(%s)") windows))

let texts =
  Array.of_list
    (List.concat_map
       (fun agg ->
         List.concat_map
           (fun filter ->
             List.init (List.length chain) (fun k ->
                 text agg filter (List.filteri (fun i _ -> i <= k) chain)))
           filters)
       aggs)

(* Same query, other spelling: canonicalizes to the standing text. *)
let variant t =
  String.concat " ,  " (String.split_on_char ',' (String.lowercase_ascii t))

(* A window literal no standing query uses: a cache miss whose plan no
   frozen group can take as-is. *)
let fresh i =
  text (List.nth aggs (i mod 3)) "" [ List.hd chain; Printf.sprintf "TUMBLINGWINDOW(second, %d)" (10 * (21 + (i mod 300))) ]

(* ---- HTTP client ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.sub s i m = sub then Some i else go (i + 1)
  in
  go 0

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_all fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  go ()

(* One request on a fresh connection (the server answers
   [Connection: close]); returns the status code and body. *)
let http ~port ~meth ~path body =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      write_all fd
        (Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
           meth path (String.length body) body);
      let resp = read_all fd in
      let status =
        if String.length resp >= 12 then
          Option.value ~default:0 (int_of_string_opt (String.sub resp 9 3))
        else 0
      in
      let body =
        match find_sub resp "\r\n\r\n" with
        | Some i -> String.sub resp (i + 4) (String.length resp - i - 4)
        | None -> ""
      in
      (status, body))

let json_int body key =
  match find_sub body (Printf.sprintf "\"%s\":" key) with
  | None -> None
  | Some i ->
      let j = i + String.length key + 3 in
      let k = ref j in
      while !k < String.length body && body.[!k] >= '0' && body.[!k] <= '9' do
        incr k
      done;
      int_of_string_opt (String.sub body j (!k - j))

(* data lines of a rows CSV reply, header dropped *)
let csv_rows body =
  match String.index_opt body '\n' with
  | None -> ""
  | Some i -> String.sub body (i + 1) (String.length body - i - 1)

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* ---- the server side of traced segments ---- *)

(* Handler-side figures of a traced segment; written by the accept
   domain while the client waits for its reply. *)
type side = { lock : Mutex.t; mutable registers : (int * bool) list }

let json_of_registered (r : Server.registered) =
  Printf.sprintf {|{"id":%d,"cached":%b,"shared":%b,"group":%d,"windows":%d}|}
    r.Server.r_id r.Server.r_cached r.Server.r_shared r.Server.r_group
    r.Server.r_windows

(* A rejection as Fw_serve.Http answers it. *)
let reject r =
  Httpd.response
    ~status:
      (match r with
      | Server.Closed -> "409 Conflict"
      | Server.Admission _ -> "429 Too Many Requests"
      | Server.Bad_request _ -> "400 Bad Request"
      | Server.Unknown_query _ -> "404 Not Found")
    (Server.reject_message r ^ "\n")

(* The routes the workload uses, split into their public calls so each
   gets a span, each request making the same single program call as
   Http.handler; any other route goes to the real handler. *)
let traced_handler tr side server meter ~client (req : Httpd.request) =
  let real () = Fw_serve.Http.handler server meter req in
  let sp name f = Spans.with_span (Some tr) ~op:0 name f in
  Spans.with_span (Some tr) ~parent:(Atomic.get client) ~op:0 "serve.handler"
    (fun () ->
      match
        (req.Httpd.meth, List.filter (( <> ) "") (String.split_on_char '/' req.Httpd.path))
      with
      | "POST", [ "ingest" ] -> (
          match sp "engine.csv_parse" (fun () -> Csv_io.parse_events req.Httpd.body) with
          | Error e -> Httpd.bad_request (e ^ "\n")
          | Ok events -> (
              match sp "serve.feed" (fun () -> Server.feed server events) with
              | Ok n -> Httpd.ok ~content_type:"application/json" (Printf.sprintf {|{"fed":%d}|} n)
              | Error r -> reject r))
      | "GET", [ "query"; id; "rows" ] -> (
          let from =
            match List.assoc_opt "from" req.Httpd.query with
            | Some v -> int_of_string_opt v
            | None -> Some 0
          in
          match (int_of_string_opt id, from) with
          | None, _ -> Httpd.bad_request "bad query id\n"
          | _, None -> Httpd.bad_request "bad from cursor\n"
          | Some id, Some from -> (
              match sp "serve.rows_from" (fun () -> Server.rows_from server id ~from) with
              | Ok rows ->
                  Httpd.ok ~content_type:"text/csv"
                    (sp "engine.rows_csv" (fun () -> Csv_io.rows_to_csv rows))
              | Error r -> reject r))
      | "POST", [ "query" ] -> (
          let tenant =
            match List.assoc_opt "tenant" req.Httpd.query with
            | Some t when t <> "" -> t
            | _ -> "default"
          in
          let r, ns =
            Mono.time (fun () ->
                sp "serve.register" (fun () -> Server.register server ~tenant req.Httpd.body))
          in
          match r with
          | Ok reg ->
              Mutex.lock side.lock;
              side.registers <- (ns, reg.Server.r_cached) :: side.registers;
              Mutex.unlock side.lock;
              Httpd.ok ~content_type:"application/json" (json_of_registered reg)
          | Error r -> reject r)
      | "DELETE", [ "query"; id ] -> (
          match int_of_string_opt id with
          | None -> Httpd.bad_request "bad query id\n"
          | Some qid -> (
              match sp "serve.unregister" (fun () -> Server.unregister server qid) with
              | Ok () ->
                  Httpd.ok ~content_type:"application/json"
                    (Printf.sprintf {|{"unregistered":%d}|} qid)
              | Error r -> reject r))
      | _ -> real ())

(* ---- one segment ---- *)

type seg = {
  setup_ns : int;
  busy_ns : int;
  timed_events : int;
  posted_events : int;  (* warm-up included *)
  ingest_ns : int list;
  poll_ns : int list;
  register_ns : int list;
  registers : (int * bool) list;  (* traced: Server.register ns, cache hit *)
  hits : int;
  misses : int;
  joins : int;
  degrades : int;
  groups : int;
  digest : string;  (* the sampled taps, in emission order *)
  taps : (int * (string * int)) list;  (* sampled query index, sorted-rows digest *)
  normalize_ns : int list;
  compile_ns : int list;
}

let counter server name = counter_sum (Server.registry server) name

let run_segment ctx cfg =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let churn = Gen.rng (ctx.seed + 7919) in
  let client_span = Atomic.make (-1) in
  let side = { lock = Mutex.create (); registers = [] } in
  let setup_ns = ref 0 in
  let setup f =
    let r, ns = Mono.time f in
    setup_ns := !setup_ns + ns;
    r
  in
  let server =
    match setup (fun () -> span ctx ~op:0 "serve.create" (fun () -> Server.create server_config)) with
    | Ok s -> s
    | Error e -> failwith ("server: " ^ e)
  in
  (* traced segments wire the server as Http.start does, with the
     span-instrumented handler in place of Http.handler *)
  let port, stop =
    setup (fun () ->
        span ctx ~op:0 "obs.start" (fun () ->
            match ctx.tracer with
            | None ->
                let h = Fw_serve.Http.start ~port:0 server in
                (Fw_serve.Http.port h, fun () -> Fw_serve.Http.stop h)
            | Some tr ->
                let registry = Server.registry server in
                let meter = Fw_obs.Meter.create registry in
                let requests =
                  Fw_obs.Registry.counter registry "serve_http_requests_total"
                    ~help:"HTTP requests answered by the query server"
                in
                let h =
                  Httpd.start ~port:0
                    ~on_request:(fun () -> Fw_obs.Counter.inc requests)
                    (traced_handler tr side server (Some meter) ~client:client_span)
                in
                (Httpd.port h, fun () -> Httpd.stop h)))
  in
  let request ~name ~op ~meth ~path body =
    Mono.time (fun () ->
        span ctx ~op name (fun () ->
            Atomic.set client_span (Spans.current_id ());
            http ~port ~meth ~path body))
  in
  let ok_status name status = check ctx (status = 200) "serve-churn: %s answered %d" name status in
  (* standing queries *)
  let ids =
    Array.init cfg.standing (fun i ->
        let (status, body), ns =
          request ~name:"obs.register" ~op:i ~meth:"POST"
            ~path:(Printf.sprintf "/query?tenant=t%d" (i mod 4))
            texts.(i mod Array.length texts)
        in
        setup_ns := !setup_ns + ns;
        ok_status "standing registration" status;
        Option.value ~default:(-1) (json_int body "id"))
  in
  let groups = Server.group_count server in
  let posted = ref 0 in
  let ingest ~name ~op =
    let buf = Buffer.create (cfg.ingest * 16) in
    Gen.add_csv gen buf cfg.ingest;
    posted := !posted + cfg.ingest;
    let (status, _), ns = request ~name ~op ~meth:"POST" ~path:"/ingest" (Buffer.contents buf) in
    ok_status name status;
    ns
  in
  for i = 1 to cfg.warm_ticks * cfg.gen.Gen.eta / cfg.ingest do
    setup_ns := !setup_ns + ingest ~name:"obs.ingest" ~op:i
  done;
  (* timed phase *)
  Mutex.lock side.lock;
  side.registers <- [];
  Mutex.unlock side.lock;
  let hits0 = counter server "serve_plan_cache_hits_total"
  and misses0 = counter server "serve_plan_cache_misses_total"
  and joins0 = counter server "serve_share_joins_total"
  and degrades0 = counter server "serve_share_degraded_total" in
  (* one long-chain query per sharing key is checked end to end *)
  let sampled =
    Array.init cfg.standing (fun i -> i < Array.length texts && i mod 5 = 4)
  in
  let cursor = Array.make cfg.standing 0 in
  let polled = Array.init cfg.standing (fun _ -> Buffer.create 0) in
  let ingest_ns = ref [] and poll_ns = ref [] and register_ns = ref [] in
  let normalize_ns = ref [] and compile_ns = ref [] in
  let busy = ref 0 in
  let prev = ref None in
  for s = 0 to cfg.steps - 1 do
    let ns = ingest ~name:"obs.ingest" ~op:s in
    ingest_ns := ns :: !ingest_ns;
    busy := !busy + ns;
    for j = 0 to cfg.polls - 1 do
      let q = ((s * cfg.polls) + j) mod cfg.standing in
      let (status, body), ns =
        request ~name:"obs.poll" ~op:s ~meth:"GET"
          ~path:(Printf.sprintf "/query/%d/rows?from=%d" ids.(q) cursor.(q))
          ""
      in
      ok_status "poll" status;
      poll_ns := ns :: !poll_ns;
      busy := !busy + ns;
      let rows = csv_rows body in
      cursor.(q) <- cursor.(q) + count_lines rows;
      if sampled.(q) then Buffer.add_string polled.(q) rows
    done;
    let t =
      if s mod 4 = 3 then fresh s
      else variant texts.(Gen.below churn (Array.length texts))
    in
    (match ctx.tracer with
    | Some _ ->
        (* the SQL front end's share of a registration, timed apart *)
        let _, ns = Mono.time (fun () -> Fw_sql.Normalize.canonical t) in
        normalize_ns := ns :: !normalize_ns;
        if s mod 4 = 3 then begin
          let _, ns = Mono.time (fun () -> Fw_sql.Compile.compile ~eta:1 t) in
          compile_ns := ns :: !compile_ns
        end
    | None -> ());
    let (status, body), ns =
      request ~name:"obs.register" ~op:s ~meth:"POST" ~path:"/query?tenant=churn" t
    in
    ok_status "churn registration" status;
    register_ns := ns :: !register_ns;
    busy := !busy + ns;
    (match !prev with
    | Some id ->
        let (status, _), ns =
          request ~name:"obs.unregister" ~op:s ~meth:"DELETE"
            ~path:(Printf.sprintf "/query/%d" id) ""
        in
        ok_status "unregister" status;
        busy := !busy + ns
    | None -> ());
    prev := json_int body "id"
  done;
  stop ();
  (* outputs: the sampled taps, as the engine holds them and as the
     client received them *)
  let tap i =
    match Server.rows_from server ids.(i) ~from:0 with Ok r -> r | Error _ -> []
  in
  let digest = Buffer.create 1024 and taps = ref [] in
  Array.iteri
    (fun i on ->
      if on then begin
        let rows = tap i in
        Buffer.add_string digest (fst (rows_digest rows));
        taps := (i, rows_digest ~sorted:true rows) :: !taps;
        let received = csv_rows (Csv_io.rows_to_csv (List.filteri (fun k _ -> k < cursor.(i)) rows)) in
        check ctx
          (String.equal received (Buffer.contents polled.(i)))
          "serve-churn: query %d: polled rows differ from its tap" ids.(i)
      end)
    sampled;
  {
    setup_ns = !setup_ns;
    busy_ns = !busy;
    timed_events = cfg.steps * cfg.ingest;
    posted_events = !posted;
    ingest_ns = List.rev !ingest_ns;
    poll_ns = !poll_ns;
    register_ns = !register_ns;
    registers = side.registers;
    hits = counter server "serve_plan_cache_hits_total" - hits0;
    misses = counter server "serve_plan_cache_misses_total" - misses0;
    joins = counter server "serve_share_joins_total" - joins0;
    degrades = counter server "serve_share_degraded_total" - degrades0;
    groups;
    digest = Digest.to_hex (Digest.string (Buffer.contents digest));
    taps = List.rev !taps;
    normalize_ns = !normalize_ns;
    compile_ns = !compile_ns;
  }

(* The independent side, run after the segments: each sampled text on a
   standalone engine fed the events one segment posted; its sorted rows
   must be byte-identical to the served tap's. *)
let standalone_check ctx cfg (s : seg) =
  let gen = Gen.create { cfg.gen with Gen.seed = ctx.seed } in
  let engines =
    List.map
      (fun (i, served) ->
        let t = texts.(i mod Array.length texts) in
        match Fw_sql.Compile.compile ~eta:server_config.Server.eta t with
        | Ok c ->
            ( t,
              served,
              Fw_engine.Stream_exec.create ~mode:Fw_engine.Stream_exec.Naive
                c.Fw_sql.Compile.outcome.Fw_plan.Rewrite.plan )
        | Error e -> failwith e)
      s.taps
  in
  let b = Fw_engine.Batch.create () in
  let left = ref s.posted_events in
  while !left > 0 do
    let k = min cfg.ingest !left in
    Gen.fill_batch gen b k;
    List.iter (fun (_, _, x) -> Fw_engine.Stream_exec.feed_batch x b) engines;
    left := !left - k
  done;
  List.iter
    (fun (t, served, x) ->
      let rows = List.init (Fw_engine.Stream_exec.row_count x) (Fw_engine.Stream_exec.row x) in
      let expected = rows_digest ~sorted:true rows in
      check ctx (served = expected)
        "serve-churn: %s: served rows differ from a standalone engine (%d vs %d rows)" t
        (snd served) (snd expected))
    engines

let rate s = float_of_int s.timed_events /. (float_of_int s.busy_ns /. 1e9)

let us ns = float_of_int ns /. 1e3

let run ?(cfg = config) ctx =
  let segs =
    segments ctx ~min:(if ctx.trace then 4 else 3) (fun ~index:_ ~traced:_ ->
        run_segment ctx cfg)
  in
  let all = List.map snd segs in
  let first = List.hd all in
  standalone_check ctx cfg first;
  List.iteri
    (fun i s ->
      check ctx (s.digest = first.digest) "serve-churn: segment %d taps differ from segment 0" i)
    all;
  let total f = List.fold_left (fun a s -> a + f s) 0 all in
  self_check ctx (total (fun s -> s.hits) > 0) "serve-churn saw no plan-cache hit";
  self_check ctx (total (fun s -> s.misses) > 0) "serve-churn saw no plan-cache miss";
  self_check ctx (total (fun s -> s.joins) > 0) "serve-churn saw no as-is join";
  self_check ctx (total (fun s -> s.degrades) > 0) "serve-churn saw no sharing degrade";
  let u = untraced segs in
  let pooled f =
    let st = Stats.create () in
    List.iter (fun s -> List.iter (fun ns -> Stats.add st (us ns)) (f s)) u;
    st
  in
  let polls = pooled (fun s -> s.poll_ns) and regs = pooled (fun s -> s.register_ns) in
  let ts = traced_or_all segs in
  let med_l l = Stats.median_list (List.map us l) in
  let spans = Spans.spans ctx.all_spans in
  let span_durs name = Array.to_list spans |> List.filter (fun (sp : Spans.span) -> sp.name = name) |> List.map Spans.duration in
  let transport =
    Array.to_list spans
    |> List.filter_map (fun (sp : Spans.span) ->
           if sp.name = "serve.handler" && sp.parent >= 0 && sp.parent < Array.length spans then
             Some (us (Spans.duration spans.(sp.parent) - Spans.duration sp))
           else None)
  in
  let registers = List.concat_map (fun s -> s.registers) ts in
  let reg_med cached =
    med_l (List.filter_map (fun (ns, c) -> if c = cached then Some ns else None) registers)
  in
  let parse_ns = List.fold_left ( + ) 0 (span_durs "engine.csv_parse") in
  let traced_events =
    List.fold_left (fun a s -> a + s.posted_events) 0 (traced segs)
  in
  let sum_all f = float_of_int (List.fold_left (fun a s -> a + f s) 0 ts) in
  Common.
    {
      setup_s = List.map (fun s -> float_of_int s.setup_ns /. 1e9) all;
      rates = List.map rate u;
      batch_ms =
        (let st = Stats.create () in
         List.iter (fun s -> List.iter (fun ns -> Stats.add st (ms_of_ns ns)) s.ingest_ns) u;
         st);
      overhead_pct = overhead segs rate;
      layer =
        [
          ("serve.poll_p50_us", (Stats.percentile polls 0.5).value);
          ("serve.poll_p99_us", (Stats.percentile polls 0.99).value);
          ("serve.register_p50_us", (Stats.percentile regs 0.5).value);
          ("serve.register_p95_us", (Stats.percentile regs 0.95).value);
          ("serve.feed_ms", Stats.median_list (List.map ms_of_ns (span_durs "serve.feed")));
          ("serve.rows_from_us", med_l (span_durs "serve.rows_from"));
          ("serve.register_cold_us", reg_med false);
          ("serve.register_warm_us", reg_med true);
          ("serve.unregister_us", med_l (span_durs "serve.unregister"));
          ( "serve.cache_hit_ratio",
            let h = sum_all (fun s -> s.hits) and m = sum_all (fun s -> s.misses) in
            if h +. m = 0.0 then 0.0 else h /. (h +. m) );
          ("serve.groups", float_of_int first.groups);
          ("serve.degraded", Stats.median_list (List.map (fun s -> float_of_int s.degrades) ts));
          ("engine.csv_parse_ns_per_event", per_event parse_ns traced_events);
          ("engine.rows_csv_us", med_l (span_durs "engine.rows_csv"));
          ("obs.http_transport_us_p50", Stats.median_list transport);
          ("sqlfront.normalize_us", med_l (List.concat_map (fun s -> s.normalize_ns) ts));
          ( "sqlfront.compile_ms",
            Stats.median_list
              (List.map ms_of_ns (List.concat_map (fun s -> s.compile_ns) ts)) );
        ];
    }
