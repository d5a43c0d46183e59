(* Fw_serve: plan cache (normalization key, LRU), the sharing planner
   (group formation, chain-condition joins, frozen-group degrades),
   admission control, the byte-identity gate against standalone runs,
   durable restart recovery, and the in-process HTTP facade. *)

open Helpers
module Server = Fw_serve.Server
module Plan_cache = Fw_serve.Plan_cache
module Share = Fw_serve.Share
module Http = Fw_serve.Http
module Httpd = Fw_obs.Httpd
module Registry = Fw_obs.Registry
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Csv_io = Fw_engine.Csv_io
module Stream_exec = Fw_engine.Stream_exec
module Compile = Fw_sql.Compile
module Rewrite = Fw_plan.Rewrite

let contains ~needle hay = Astring_contains.contains hay needle

(* --- fixtures ------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      try Sys.rmdir p with Sys_error _ -> ()
    end
    else try Sys.remove p with Sys_error _ -> ()

(* [f] on a fresh state directory, removed afterwards, failed or not. *)
let with_temp_dir =
  let n = ref 0 in
  fun f ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fw_test_serve_%d_%d" (Unix.getpid ()) !n)
    in
    rm_rf d;
    Fun.protect ~finally:(fun () -> rm_rf d) (fun () -> f d)

(* Deterministic stream with awkward float values so byte-identity
   failures (a changed fold order) actually flip bits. *)
let events n =
  List.init n (fun i ->
      let time = i + 1 in
      let key = [| "a"; "b"; "c" |].((i * 7) mod 3) in
      let value = float_of_int (((i * 7919) mod 97) - 48) /. 7.0 in
      Event.make ~time ~key ~value)

let q_t10 = "SELECT SUM(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 10)"

let q_t10_t20 =
  "SELECT SUM(v) FROM input GROUP BY key, \
   WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
   WINDOW(TUMBLINGWINDOW(second, 20)))"

let q_t10_t20_t40 =
  "SELECT SUM(v) FROM input GROUP BY key, \
   WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
   WINDOW(TUMBLINGWINDOW(second, 20)), \
   WINDOW(TUMBLINGWINDOW(second, 40)))"

let create_exn cfg =
  match Server.create cfg with
  | Ok s -> s
  | Error e -> Alcotest.failf "server create failed: %s" e

let register_exn ?(tenant = "t") server text =
  match Server.register server ~tenant text with
  | Ok r -> r
  | Error rej ->
      Alcotest.failf "register %S refused: %s" text
        (Server.reject_message rej)

let feed_exn server evs =
  match Server.feed server evs with
  | Ok n -> n
  | Error rej -> Alcotest.failf "feed refused: %s" (Server.reject_message rej)

let close_exn server ~horizon =
  match Server.close server ~horizon with
  | Ok () -> ()
  | Error rej -> Alcotest.failf "close refused: %s" (Server.reject_message rej)

let rows_exn ?(from = 0) server id =
  match Server.rows_from server id ~from with
  | Ok rows -> rows
  | Error rej ->
      Alcotest.failf "rows_from %d refused: %s" id
        (Server.reject_message rej)

(* What one independent run of [text] over [evs] produces: the byte
   reference every served tap is held to. *)
let standalone ?(eta = 1) text ~horizon evs =
  match Compile.compile ~eta text with
  | Ok c -> Stream_exec.run c.Compile.outcome.Rewrite.plan ~horizon evs
  | Error e -> Alcotest.failf "standalone compile failed: %s" e

(* --- plan cache ----------------------------------------------------- *)

let test_cache_normalization_hits () =
  let server = create_exn Server.default_config in
  let r1 = register_exn server q_t10 in
  check_bool "first registration is a miss" false r1.Server.r_cached;
  (* whitespace, keyword case and comments normalize away *)
  let variants =
    [
      "select sum(v) from input group by key, tumblingwindow(second, 10)";
      "SELECT   SUM(v)\n  FROM input\n  GROUP BY key, \
       TUMBLINGWINDOW(second, 10)";
      "SELECT SUM(v) -- total\nFROM input GROUP BY key, \
       TUMBLINGWINDOW(second, 10) /* ten seconds */";
    ]
  in
  List.iter
    (fun text ->
      let r = register_exn server text in
      check_bool (Printf.sprintf "%S hits the cache" text) true
        r.Server.r_cached)
    variants;
  (* different literals and window parameters are different keys *)
  let misses =
    [
      "SELECT SUM(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 20)";
      "SELECT SUM(v) FROM input WHERE v > 1 GROUP BY key, \
       TUMBLINGWINDOW(second, 10)";
      "SELECT MIN(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 10)";
    ]
  in
  List.iter
    (fun text ->
      let r = register_exn server text in
      check_bool (Printf.sprintf "%S misses the cache" text) false
        r.Server.r_cached)
    misses

let test_cache_lru_eviction () =
  let r = Registry.create () in
  let cache = Plan_cache.create ~capacity:2 r in
  let compiled text =
    match Compile.compile text with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile failed: %s" e
  in
  let k1 = "SELECT SUM(v) FROM s GROUP BY k, TUMBLINGWINDOW(second, 10)" in
  let k2 = "SELECT SUM(v) FROM s GROUP BY k, TUMBLINGWINDOW(second, 20)" in
  let k3 = "SELECT SUM(v) FROM s GROUP BY k, TUMBLINGWINDOW(second, 30)" in
  Plan_cache.add cache k1 (compiled k1);
  Plan_cache.add cache k2 (compiled k2);
  check_int "full" 2 (Plan_cache.size cache);
  (* touch k1 so k2 is the LRU victim *)
  check_bool "k1 hit" true (Plan_cache.find cache k1 <> None);
  Plan_cache.add cache k3 (compiled k3);
  check_int "still at capacity" 2 (Plan_cache.size cache);
  check_int "one eviction" 1 (Plan_cache.evictions cache);
  check_bool "k2 was evicted" true (Plan_cache.find cache k2 = None);
  check_bool "k1 survived" true (Plan_cache.find cache k1 <> None);
  check_bool "k3 present" true (Plan_cache.find cache k3 <> None);
  check_int "hits" 3 (Plan_cache.hits cache);
  check_int "misses" 1 (Plan_cache.misses cache);
  match Plan_cache.create ~capacity:0 r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must raise"

(* --- sharing planner ------------------------------------------------ *)

let test_sharing_groups_overlap () =
  let server = create_exn Server.default_config in
  let a = register_exn ~tenant:"alpha" server q_t10 in
  let b = register_exn ~tenant:"beta" server q_t10_t20 in
  let c = register_exn ~tenant:"gamma" server q_t10_t20_t40 in
  check_int "one group" 1 (Server.group_count server);
  check_bool "same group" true
    (a.Server.r_group = b.Server.r_group && b.Server.r_group = c.Server.r_group);
  check_bool "b shared" true b.Server.r_shared;
  check_bool "c shared" true c.Server.r_shared;
  (* a different aggregate or a WHERE clause is a different sharing key *)
  let m = register_exn server "SELECT MIN(v) FROM input GROUP BY key, \
                               TUMBLINGWINDOW(second, 10)" in
  check_bool "MIN in its own group" true (m.Server.r_group <> a.Server.r_group);
  let f =
    register_exn server
      "SELECT SUM(v) FROM input WHERE v > 1 GROUP BY key, \
       TUMBLINGWINDOW(second, 10)"
  in
  check_bool "filtered query in its own group" true
    (f.Server.r_group <> a.Server.r_group);
  check_int "three groups" 3 (Server.group_count server)

let test_sharing_disabled () =
  let server =
    create_exn { Server.default_config with Server.sharing = false }
  in
  let a = register_exn server q_t10 in
  let b = register_exn server q_t10_t20 in
  check_bool "no sharing" true (a.Server.r_group <> b.Server.r_group);
  check_int "one group per query" 2 (Server.group_count server)

let test_frozen_group_joins_and_degrades () =
  let server = create_exn Server.default_config in
  let a = register_exn server q_t10_t20 in
  ignore (feed_exn server (events 15));
  (* the group engine is now running.  A subset query whose standalone
     chain is a prefix of the running plan joins as-is... *)
  let sub = register_exn server q_t10 in
  check_bool "chain-compatible join to a frozen group" true
    (sub.Server.r_group = a.Server.r_group && sub.Server.r_shared);
  (* ...but a window the running plan has never heard of degrades *)
  let stranger =
    register_exn server
      "SELECT SUM(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 30)"
  in
  check_bool "degraded to its own group" true
    (stranger.Server.r_group <> a.Server.r_group);
  check_bool "degraded query is not shared" false stranger.Server.r_shared;
  let suffix = events 40 |> List.filter (fun e -> e.Event.time > 15) in
  ignore (feed_exn server suffix);
  close_exn server ~horizon:40;
  (* the degraded query's engine started at its registration, so its
     rows are byte-identical to a standalone run over the stream it
     actually saw *)
  let got = Row.sort (rows_exn server stranger.Server.r_id) in
  let want =
    standalone
      "SELECT SUM(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 30)"
      ~horizon:40 suffix
  in
  check_bool "degraded rows byte-identical over its stream" true (got = want)

let test_late_joiner_sees_only_new_rows () =
  let server = create_exn Server.default_config in
  let a = register_exn server q_t10 in
  ignore (feed_exn server (events 25));
  (* rows for windows [0,10) and [10,20) have been emitted *)
  let early_rows = List.length (rows_exn server a.Server.r_id) in
  check_bool "early emissions happened" true (early_rows > 0);
  let late = register_exn server q_t10 in
  check_bool "late joiner shares" true (late.Server.r_shared);
  check_int "late tap starts empty" 0
    (List.length (rows_exn server late.Server.r_id));
  ignore
    (feed_exn server (events 40 |> List.filter (fun e -> e.Event.time > 25)));
  close_exn server ~horizon:40;
  let late_rows = rows_exn server late.Server.r_id in
  check_bool "late tap only has post-join emissions" true
    (List.for_all (fun r -> r.Row.interval.Fw_window.Interval.hi > 20) late_rows);
  (* the early query's tap is still the full standalone answer *)
  let got = Row.sort (rows_exn server a.Server.r_id) in
  let want = standalone q_t10 ~horizon:40 (events 40) in
  check_bool "from-start tap byte-identical" true (got = want)

(* --- admission control ---------------------------------------------- *)

let test_admission_limits () =
  let cfg =
    { Server.default_config with Server.max_queries = 2; tenant_quota = 1 }
  in
  let server = create_exn cfg in
  let a = register_exn ~tenant:"alpha" server q_t10 in
  (match Server.register server ~tenant:"alpha" q_t10_t20 with
  | Error (Server.Admission _) -> ()
  | _ -> Alcotest.fail "tenant quota must refuse");
  let _b = register_exn ~tenant:"beta" server q_t10_t20 in
  (match Server.register server ~tenant:"gamma" q_t10 with
  | Error (Server.Admission _) -> ()
  | _ -> Alcotest.fail "max_queries must refuse");
  (* unregistering frees the slot and the tenant's quota *)
  (match Server.unregister server a.Server.r_id with
  | Ok () -> ()
  | Error rej -> Alcotest.failf "unregister: %s" (Server.reject_message rej));
  let _c = register_exn ~tenant:"alpha" server q_t10 in
  check_int "back at capacity" 2 (Server.query_count server);
  match Server.unregister server 999 with
  | Error (Server.Unknown_query 999) -> ()
  | _ -> Alcotest.fail "unknown id must be reported"

let test_feed_validation () =
  let server = create_exn Server.default_config in
  ignore (register_exn server q_t10);
  ignore (feed_exn server (events 10));
  (* an event older than the watermark is refused atomically *)
  (match Server.feed server [ Event.make ~time:3 ~key:"a" ~value:1.0 ] with
  | Error (Server.Bad_request _) -> ()
  | _ -> Alcotest.fail "late event must be refused");
  (* out-of-order inside the batch is refused too *)
  (match
     Server.feed server
       [
         Event.make ~time:30 ~key:"a" ~value:1.0;
         Event.make ~time:20 ~key:"a" ~value:1.0;
       ]
   with
  | Error (Server.Bad_request _) -> ()
  | _ -> Alcotest.fail "disordered batch must be refused");
  check_int "nothing was fed" 10 (Server.watermark server);
  close_exn server ~horizon:20;
  match Server.feed server (events 1) with
  | Error Server.Closed -> ()
  | _ -> Alcotest.fail "closed stream must refuse input"

(* --- the byte-identity gate ------------------------------------------ *)

(* N concurrent queries against one server, each compared
   byte-for-byte with its own independent run: the correctness gate
   cross-query sharing must clear. *)
let test_byte_identity_gate () =
  let texts =
    [
      q_t10;
      q_t10_t20;
      q_t10_t20_t40;
      "SELECT MIN(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 20)";
      "SELECT AVG(v) FROM input GROUP BY key, \
       WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
       WINDOW(TUMBLINGWINDOW(second, 30)))";
      "SELECT SUM(v) FROM input WHERE v > 0 GROUP BY key, \
       TUMBLINGWINDOW(second, 10)";
    ]
  in
  let horizon = 80 in
  let evs = events 80 in
  let server = create_exn Server.default_config in
  let ids =
    List.map (fun t -> ((register_exn server t).Server.r_id, t)) texts
  in
  check_bool "sharing actually happened" true
    (Server.group_count server < List.length texts);
  ignore (feed_exn server evs);
  close_exn server ~horizon;
  List.iter
    (fun (id, text) ->
      let got = Row.sort (rows_exn server id) in
      let want = standalone text ~horizon evs in
      check_bool (Printf.sprintf "%S byte-identical" text) true (got = want))
    ids

(* --- durable restart -------------------------------------------------- *)

let test_restart_recovers () =
  with_temp_dir @@ fun dir ->
  let cfg =
    {
      Server.default_config with
      Server.state_dir = Some dir;
      every = 7;
    }
  in
  let horizon = 60 in
  let evs = events 60 in
  let first, rest = List.partition (fun e -> e.Event.time <= 31) evs in
  let id_a, id_b =
    let server = create_exn cfg in
    let a = register_exn ~tenant:"alpha" server q_t10_t20 in
    let b = register_exn ~tenant:"beta" server q_t10 in
    check_bool "shared before the crash" true b.Server.r_shared;
    ignore (feed_exn server first);
    (match Server.checkpoint server with
    | Ok () -> ()
    | Error rej ->
        Alcotest.failf "checkpoint: %s" (Server.reject_message rej));
    (* the server is now abandoned without close: the kill -9 case *)
    (a.Server.r_id, b.Server.r_id)
  in
  let server = create_exn cfg in
  check_int "both queries recovered" 2 (Server.query_count server);
  check_int "one shared group recovered" 1 (Server.group_count server);
  check_bool "watermark recovered" true (Server.watermark server >= 0);
  (match Server.query_info server id_b with
  | Ok i -> check_bool "recovered query is shared" true i.Server.i_shared
  | Error rej -> Alcotest.failf "query_info: %s" (Server.reject_message rej));
  ignore
    (feed_exn server
       (List.filter (fun e -> e.Event.time > Server.watermark server) rest));
  close_exn server ~horizon;
  List.iter
    (fun (id, text) ->
      let got = Row.sort (rows_exn server id) in
      let want = standalone text ~horizon evs in
      check_bool (Printf.sprintf "%S survives restart byte-identically" text)
        true (got = want))
    [ (id_a, q_t10_t20); (id_b, q_t10) ]

(* --- HTTP facade (in-process, no sockets) ----------------------------- *)

let req ?(meth = "GET") ?(query = []) ?(body = "") path =
  { Httpd.meth; path; query; body }

let test_http_handler_e2e () =
  let server = create_exn Server.default_config in
  let h = Http.handler server None in
  let resp = h (req ~meth:"POST" ~query:[ ("tenant", "alpha") ]
                  ~body:q_t10 "/query") in
  check_bool "register 200" true (resp.Httpd.status = "200 OK");
  check_bool "register reply has id" true
    (contains ~needle:{|"id":|} resp.Httpd.body);
  check_bool "register reply says miss" true
    (contains ~needle:{|"cached":false|} resp.Httpd.body);
  let id =
    match Server.list_queries server with
    | [ i ] -> i.Server.i_id
    | l -> Alcotest.failf "expected 1 query, got %d" (List.length l)
  in
  (* malformed SQL is a 400 (numbers that overflow included), unknown
     ids are 404 *)
  List.iter
    (fun body ->
      let bad = h (req ~meth:"POST" ~body "/query") in
      check_bool (Printf.sprintf "%S is 400" body) true
        (String.length bad.Httpd.status >= 3
        && String.sub bad.Httpd.status 0 3 = "400"))
    [
      "SELECT FROM";
      "SELECT SUM(value) FROM input GROUP BY key, \
       HOPPINGWINDOW(minute, 99999999999999999999, 10)";
      "SELECT SUM(value) FROM input GROUP BY key, \
       HOPPINGWINDOW(hour, 4611686018427387, 10)";
      (* 4.6e18 ticks: the optimizer must fail fast, not factor slowly *)
      "SELECT SUM(value) FROM input GROUP BY key, \
       TUMBLINGWINDOW(day, 53375995583263)";
    ];
  let again = h (req ~meth:"POST" ~body:q_t10 "/query") in
  check_bool "registration after rejects is 200" true
    (again.Httpd.status = "200 OK");
  let missing = h (req (Printf.sprintf "/query/%d" (id + 77))) in
  check_bool "unknown query is 404" true
    (String.sub missing.Httpd.status 0 3 = "404");
  (* feed over the wire as CSV *)
  let evs = events 25 in
  let fed = h (req ~meth:"POST" ~body:(Csv_io.events_to_csv evs) "/ingest") in
  check_bool "ingest 200" true (fed.Httpd.status = "200 OK");
  check_bool "ingest counted" true
    (contains ~needle:{|"fed":25|} fed.Httpd.body);
  let closed = h (req ~meth:"POST" ~query:[ ("horizon", "30") ] "/close") in
  check_bool "close 200" true (closed.Httpd.status = "200 OK");
  (* the rows endpoint is exactly the CSV of the tap *)
  let rows = h (req (Printf.sprintf "/query/%d/rows" id)) in
  check_bool "rows 200" true (rows.Httpd.status = "200 OK");
  check_string "rows are CSV" "text/csv" rows.Httpd.content_type;
  check_string "rows body matches the tap"
    (Csv_io.rows_to_csv (rows_exn server id))
    rows.Httpd.body;
  (* cursor streaming: from=rows-seen returns nothing new *)
  let n = List.length (rows_exn server id) in
  let tail =
    h (req ~query:[ ("from", string_of_int n) ]
         (Printf.sprintf "/query/%d/rows" id))
  in
  check_string "drained cursor is empty CSV"
    (Csv_io.rows_to_csv []) tail.Httpd.body;
  (* closed stream: ingest refused, health degraded, metrics still up *)
  let refused = h (req ~meth:"POST" ~body:"time,key,value\n99,a,1\n" "/ingest") in
  check_bool "ingest after close is 409" true
    (String.sub refused.Httpd.status 0 3 = "409");
  let health = h (req "/healthz") in
  check_bool "healthz degraded after close" true
    (String.sub health.Httpd.status 0 3 = "503");
  let metrics = h (req "/metrics") in
  check_bool "metrics scrape works" true
    (contains ~needle:"serve_queries" metrics.Httpd.body)

let test_http_admission_maps_to_429 () =
  let server =
    create_exn { Server.default_config with Server.max_queries = 1 }
  in
  let h = Http.handler server None in
  let ok = h (req ~meth:"POST" ~body:q_t10 "/query") in
  check_bool "first in" true (ok.Httpd.status = "200 OK");
  let full = h (req ~meth:"POST" ~body:q_t10_t20 "/query") in
  check_bool "admission is 429" true
    (String.sub full.Httpd.status 0 3 = "429")

(* One batch per ingest.  A shared multi-window group (plus a group of
   its own) is fed several-tick ingests and one punctuation, with a
   late joiner registered between two ingests.  At every ingest
   boundary each tap holds exactly as many rows as a per-event
   standalone engine of its query has emitted since the query joined —
   the first member exposes its group's whole window set, so its tap
   is the group engine's row count — and the sorted taps end
   byte-identical to those engines' rows.  Both modes, direct and
   durable (a checkpoint every 5 events, so cuts land mid-batch). *)
let test_batched_ingest_matches_per_event () =
  let horizon = 60 in
  (* ticks 36..40 carry no events: the stream advances to 40 instead *)
  let evs =
    List.filter
      (fun e -> e.Event.time <= 35 || e.Event.time > 40)
      (events 59)
  in
  let ingests =
    List.init 9 (fun i ->
        List.filter (fun e -> (e.Event.time - 1) / 7 = i) evs)
    |> List.filter (( <> ) [])
  in
  let q_min = "SELECT MIN(v) FROM input GROUP BY key, \
               WINDOWS(WINDOW(TUMBLINGWINDOW(second, 10)), \
               WINDOW(TUMBLINGWINDOW(second, 30)))"
  in
  let run ~incremental ~label state_dir =
    let server =
      create_exn
        { Server.default_config with Server.incremental; state_dir; every = 5 }
    in
    let mode =
      if incremental then Stream_exec.Incremental else Stream_exec.Naive
    in
    let fed = ref [] in
    let members = ref [] in
    let join text =
      let r = register_exn server text in
      let exec =
        match Compile.compile ~eta:1 text with
        | Ok c -> Stream_exec.create ~mode c.Compile.outcome.Rewrite.plan
        | Error e -> Alcotest.failf "standalone compile failed: %s" e
      in
      List.iter (Stream_exec.feed exec) (List.rev !fed);
      members :=
        !members @ [ (r, text, exec, Stream_exec.row_count exec) ]
    in
    let check_counts at =
      List.iter
        (fun (r, text, exec, from) ->
          check_int
            (Printf.sprintf "%s: %S rows at %s" label text at)
            (Stream_exec.row_count exec - from)
            (List.length (rows_exn server r.Server.r_id)))
        !members
    in
    join q_t10_t20_t40;
    join q_t10_t20;
    join q_min;
    List.iteri
      (fun i chunk ->
        ignore (feed_exn server chunk);
        List.iter
          (fun (_, _, exec, _) -> List.iter (Stream_exec.feed exec) chunk)
          !members;
        fed := List.rev_append chunk !fed;
        let wm = Server.watermark server in
        check_counts (Printf.sprintf "ingest %d (wm %d)" i wm);
        if i = 2 then join q_t10;
        if wm = 35 then begin
          (match Server.advance server 40 with
          | Ok () -> ()
          | Error rej ->
              Alcotest.failf "advance: %s" (Server.reject_message rej));
          List.iter
            (fun (_, _, exec, _) -> Stream_exec.advance exec 40)
            !members;
          check_counts "advance 40"
        end)
      ingests;
    (match !members with
    | (a, _, _, _) :: (b, _, _, _) :: (c, _, _, _) :: (late, _, _, _) :: _ ->
        check_bool (label ^ ": shared group") true
          (b.Server.r_shared && a.Server.r_group = b.Server.r_group);
        check_bool (label ^ ": MIN runs apart") true
          (c.Server.r_group <> a.Server.r_group);
        check_bool (label ^ ": late joiner shares") true
          (late.Server.r_group = a.Server.r_group)
    | _ -> Alcotest.fail "four members expected");
    close_exn server ~horizon;
    List.iter
      (fun (r, text, exec, from) ->
        ignore (Stream_exec.close exec ~horizon);
        let want =
          Row.sort
            (List.init
               (Stream_exec.row_count exec - from)
               (fun i -> Stream_exec.row exec (from + i)))
        in
        check_bool
          (Printf.sprintf "%s: %S tap byte-identical" label text)
          true
          (Row.sort (rows_exn server r.Server.r_id) = want))
      !members
  in
  List.iter
    (fun (incremental, durable) ->
      let label = Printf.sprintf "incremental=%b durable=%b" incremental durable in
      if durable then with_temp_dir (fun d -> run ~incremental ~label (Some d))
      else run ~incremental ~label None)
    [ (false, false); (true, false); (false, true); (true, true) ]

(* --- the rendered rows body ------------------------------------------ *)

let rows_csv_exn ?(from = 0) server id =
  match Server.rows_csv server id ~from with
  | Ok body -> body
  | Error rej ->
      Alcotest.failf "rows_csv %d refused: %s" id (Server.reject_message rej)

let counter server name =
  Option.value ~default:0
    (Registry.counter_value (Server.registry server) name)

(* At every cursor — negative, inside, at and past the end — the body
   copied out of the group log is the CSV of the same tap positions. *)
let check_rows_csv label server id =
  let n = List.length (rows_exn server id) in
  List.iter
    (fun from ->
      check_string
        (Printf.sprintf "%s: query %d rows_csv from %d" label id from)
        (Csv_io.rows_to_csv (rows_exn ~from server id))
        (rows_csv_exn ~from server id))
    [ -5; -1; 0; 1; n / 2; n - 1; n; n + 1; n + 40 ]

let test_rows_csv_edges () =
  let server = create_exn Server.default_config in
  let a = register_exn server q_t10_t20 in
  ignore (feed_exn server (events 25));
  check_rows_csv "first ingest" server a.Server.r_id;
  (* a late joiner's tap starts past the group's first rows *)
  let late = register_exn server q_t10 in
  check_bool "late joiner shares" true
    (late.Server.r_group = a.Server.r_group);
  check_string "late joiner starts empty" Csv_io.rows_header
    (rows_csv_exn server late.Server.r_id);
  (* a window the frozen plan lacks degrades to a group of its own *)
  let stranger =
    register_exn server
      "SELECT SUM(v) FROM input GROUP BY key, TUMBLINGWINDOW(second, 30)"
  in
  check_bool "degraded" true (stranger.Server.r_group <> a.Server.r_group);
  ignore
    (feed_exn server (events 50 |> List.filter (fun e -> e.Event.time > 25)));
  List.iter
    (fun (label, r) -> check_rows_csv label server r.Server.r_id)
    [ ("shared", a); ("late joiner", late); ("degraded", stranger) ];
  (* the sibling that rendered most of the log goes; the log stays *)
  (match Server.unregister server a.Server.r_id with
  | Ok () -> ()
  | Error rej -> Alcotest.failf "unregister: %s" (Server.reject_message rej));
  ignore
    (feed_exn server (events 70 |> List.filter (fun e -> e.Event.time > 50)));
  close_exn server ~horizon:80;
  check_rows_csv "after the sibling left" server late.Server.r_id;
  check_rows_csv "degraded after close" server stranger.Server.r_id;
  check_bool "late tap has rows" true
    (rows_exn server late.Server.r_id <> []);
  match Server.rows_csv server a.Server.r_id ~from:0 with
  | Error (Server.Unknown_query _) -> ()
  | _ -> Alcotest.fail "an unregistered query's rows are unknown"

(* A durable server polled before an abandon-without-close, then
   recovered: polling on from the old cursor continues the body, and
   the two pieces are the whole tap. *)
let test_rows_csv_after_recover () =
  with_temp_dir @@ fun dir ->
  let cfg =
    { Server.default_config with Server.state_dir = Some dir; every = 7 }
  in
  let evs = events 60 in
  let first, rest = List.partition (fun e -> e.Event.time <= 31) evs in
  let drop_header body =
    let h = String.length Csv_io.rows_header in
    String.sub body h (String.length body - h)
  in
  let ids, before =
    let server = create_exn cfg in
    let a = register_exn server q_t10_t20 in
    let b = register_exn server q_t10 in
    ignore (feed_exn server first);
    (match Server.checkpoint server with
    | Ok () -> ()
    | Error rej ->
        Alcotest.failf "checkpoint: %s" (Server.reject_message rej));
    let ids = [ a.Server.r_id; b.Server.r_id ] in
    ( ids,
      List.map
        (fun id -> (rows_csv_exn server id, List.length (rows_exn server id)))
        ids )
  in
  let server = create_exn cfg in
  List.iter (check_rows_csv "recovered" server) ids;
  ignore
    (feed_exn server
       (List.filter (fun e -> e.Event.time > Server.watermark server) rest));
  close_exn server ~horizon:60;
  List.iter2
    (fun id (body, cursor) ->
      check_bool "rows before the crash" true (cursor > 0);
      check_rows_csv "recovered, closed" server id;
      check_string
        (Printf.sprintf "query %d: pre-crash body + resumed body" id)
        (rows_csv_exn server id)
        (body ^ drop_header (rows_csv_exn ~from:cursor server id)))
    ids before

(* Session rows render over HTTP (gap as range, slide 0) instead of
   failing the request. *)
let test_http_session_rows () =
  let server = create_exn Server.default_config in
  let h = Http.handler server None in
  let reg =
    h (req ~meth:"POST"
         ~body:"SELECT SUM(v) FROM input GROUP BY key, SESSIONWINDOW(second, 5)"
         "/query")
  in
  check_string "register" "200 OK" reg.Httpd.status;
  let id =
    match Server.list_queries server with
    | [ i ] -> i.Server.i_id
    | l -> Alcotest.failf "expected 1 query, got %d" (List.length l)
  in
  let body = "time,key,value\n1,a,1\n2,a,2\n3,b,0.5\n20,a,4\n" in
  check_string "ingest" "200 OK"
    (h (req ~meth:"POST" ~body "/ingest")).Httpd.status;
  check_string "close" "200 OK"
    (h (req ~meth:"POST" ~query:[ ("horizon", "40") ] "/close")).Httpd.status;
  let rows = h (req (Printf.sprintf "/query/%d/rows" id)) in
  check_string "rows 200" "200 OK" rows.Httpd.status;
  check_string "session rows body"
    "range,slide,start,end,key,value\n\
     5,0,1,7,a,3\n\
     5,0,3,8,b,0.5\n\
     5,0,20,25,a,4\n"
    rows.Httpd.body

(* One group of three members polled in full, twice: every group row is
   rendered once, while the taps deliver it once per member exposing
   its window. *)
let test_rows_rendered_once () =
  let server = create_exn Server.default_config in
  let ids =
    List.map
      (fun text -> (register_exn server text).Server.r_id)
      [ q_t10; q_t10_t20; q_t10_t20_t40 ]
  in
  check_int "one group" 1 (Server.group_count server);
  ignore (feed_exn server (events 80));
  close_exn server ~horizon:80;
  for _ = 1 to 2 do
    List.iter (fun id -> ignore (rows_csv_exn server id)) ids
  done;
  let group_rows = List.length (rows_exn server (List.nth ids 2)) in
  let delivered =
    List.fold_left (fun acc id -> acc + List.length (rows_exn server id)) 0 ids
  in
  check_int "each group row rendered once" group_rows
    (counter server "serve_rows_rendered_total");
  check_int "rows delivered" delivered (counter server "serve_rows_total");
  check_bool "rendering is shared" true (delivered > group_rows);
  let metrics = Http.handler server None (req "/metrics") in
  check_bool "/metrics shows the rendered count" true
    (contains
       ~needle:(Printf.sprintf "serve_rows_rendered_total %d" group_rows)
       metrics.Httpd.body)

let suite =
  [
    Alcotest.test_case "plan cache: normalization hits and misses" `Quick
      test_cache_normalization_hits;
    Alcotest.test_case "plan cache: LRU eviction" `Quick
      test_cache_lru_eviction;
    Alcotest.test_case "sharing: overlapping queries share one engine" `Quick
      test_sharing_groups_overlap;
    Alcotest.test_case "sharing: disabled config isolates queries" `Quick
      test_sharing_disabled;
    Alcotest.test_case "sharing: frozen-group joins and degrades" `Quick
      test_frozen_group_joins_and_degrades;
    Alcotest.test_case "sharing: late joiner sees only new rows" `Quick
      test_late_joiner_sees_only_new_rows;
    Alcotest.test_case "admission: query and tenant limits" `Quick
      test_admission_limits;
    Alcotest.test_case "feed: ordering and closed-stream validation" `Quick
      test_feed_validation;
    Alcotest.test_case "byte-identity gate: served vs standalone" `Quick
      test_byte_identity_gate;
    Alcotest.test_case "durable: restart recovers queries and rows" `Quick
      test_restart_recovers;
    Alcotest.test_case "http: end-to-end over the handler" `Quick
      test_http_handler_e2e;
    Alcotest.test_case "http: admission maps to 429" `Quick
      test_http_admission_maps_to_429;
    Alcotest.test_case "ingest: one batch per ingest = per-event engines"
      `Quick test_batched_ingest_matches_per_event;
    Alcotest.test_case "rows csv: cursors, late joiner, degrade, unregister"
      `Quick test_rows_csv_edges;
    Alcotest.test_case "rows csv: resumed across a durable recovery" `Quick
      test_rows_csv_after_recover;
    Alcotest.test_case "http: session-window rows render" `Quick
      test_http_session_rows;
    Alcotest.test_case "rows csv: each group row rendered once" `Quick
      test_rows_rendered_once;
  ]
