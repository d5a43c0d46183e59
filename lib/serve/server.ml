module Registry = Fw_obs.Registry
module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge
module Histogram = Fw_obs.Histogram
module Clock = Fw_obs.Clock
module Window = Fw_window.Window
module Plan = Fw_plan.Plan
module Rewrite = Fw_plan.Rewrite
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Stream_exec = Fw_engine.Stream_exec
module Batch = Fw_engine.Batch
module Checkpoint = Fw_snap.Checkpoint
module Recover = Fw_snap.Recover
module Vec = Fw_util.Vec

type config = {
  eta : int;
  incremental : bool;
  factor_windows : bool;
  sharing : bool;
  max_queries : int;
  tenant_quota : int;
  cache_capacity : int;
  state_dir : string option;
  every : int;
  memory_budget : int option;
}

let default_config =
  {
    eta = 1;
    incremental = false;
    factor_windows = true;
    sharing = true;
    max_queries = 64;
    tenant_quota = 16;
    cache_capacity = 128;
    state_dir = None;
    every = 1000;
    memory_budget = None;
  }

(* The smallest per-group slice of --memory-budget worth running under:
   below this an engine would thrash every access through the spill
   file.  A registration that would create one group too many for the
   budget is refused at admission (HTTP 429). *)
let min_group_budget = 64 * 1024

type reject =
  | Closed
  | Admission of string
  | Bad_request of string
  | Unknown_query of int

let reject_message = function
  | Closed -> "the stream is closed"
  | Admission r -> r
  | Bad_request r -> r
  | Unknown_query id -> Printf.sprintf "no registered query %d" id

type registered = {
  r_id : int;
  r_cached : bool;
  r_shared : bool;
  r_group : int;
  r_windows : int;
}

type spill_info = {
  s_budget : int;  (** the group's current share of --memory-budget *)
  s_resident_bytes : int;
  s_resident_keys : int;
  s_disk_bytes : int;
}

type query_info = {
  i_id : int;
  i_tenant : string;
  i_text : string;
  i_group : int;
  i_shared : bool;
  i_windows : int;
  i_rows : int;
  i_spill : spill_info option;
}

type query = {
  q_id : int;
  q_tenant : string;
  q_text : string;  (* canonical *)
  q_plan : Plan.t;  (* standalone optimized plan: the sharing witness *)
  q_exposed : Window.t list;
  q_from : int;  (* group rows emitted before this query joined *)
  q_group : group;
  q_rows : int Vec.t;  (* the tap: group-row indices, in emission order *)
  q_rows_c : Counter.t;
}

and engine = E_direct of Stream_exec.t | E_durable of Checkpoint.t

and group = {
  g_id : int;
  g_key : Share.key;
  mutable g_members : query list;  (* registration order *)
  mutable g_plan : Plan.t;
  mutable g_union : Window.t list;  (* window set g_plan was planned for *)
  mutable g_frozen : bool;  (* engine started: the plan may not change *)
  mutable g_engine : engine option;
  mutable g_spill : Fw_spill.Pool.t option;  (* with the engine, budgeted *)
  mutable g_drained : int;  (* engine rows drained into member taps *)
  g_log : Buffer.t;
      (* CSV lines of engine rows [0, length g_ends), each rendered
         once, on the first poll that needs it *)
  g_ends : int Vec.t;  (* end offset in [g_log] of each line *)
}

type t = {
  cfg : config;
  registry : Registry.t;
  cache : Plan_cache.t;
  queries : (int, query) Hashtbl.t;
  mutable groups : group list;  (* creation order *)
  batch : Batch.t;  (* the current ingest, handed to every engine *)
  mutable next_qid : int;
  mutable next_gid : int;
  mutable wm : int;
  mutable closed : bool;
  mutable manifest : out_channel option;
  mutable replaying : bool;  (* manifest replay: suppress appends *)
  reg_hit_c : Counter.t;
  reg_miss_c : Counter.t;
  reg_hit_ns : Histogram.t;
  reg_miss_ns : Histogram.t;
  share_joins_c : Counter.t;
  ingested_c : Counter.t;
  rows_c : Counter.t;
  rendered_c : Counter.t;
  unregistered_c : Counter.t;
  queries_g : Gauge.t;
  groups_g : Gauge.t;
  engines_g : Gauge.t;
  shared_g : Gauge.t;
  wm_g : Gauge.t;
}

let registry t = t.registry
let config t = t.cfg
let is_closed t = t.closed
let watermark t = t.wm
let query_count t = Hashtbl.length t.queries
let group_count t = List.length t.groups
let mode t = if t.cfg.incremental then Stream_exec.Incremental else Stream_exec.Naive

(* ---- filesystem helpers (durable mode) ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

(* group checkpoint dirs are flat (snapshots, log segments, row log) *)
let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f ->
        let p = Filename.concat dir f in
        if not (Sys.is_directory p) then
          try Sys.remove p with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let group_dir sd gid = Filename.concat sd (Printf.sprintf "g%d" gid)
let manifest_path sd = Filename.concat sd "queries.log"

let manifest_append t line =
  if not t.replaying then
    match t.manifest with
    | Some oc ->
        output_string oc line;
        output_char oc '\n';
        flush oc
    | None -> ()

(* ---- metrics ---- *)

let degrade t reason =
  Counter.inc
    (Registry.counter t.registry "serve_share_degraded_total"
       ~labels:[ ("reason", reason) ]
       ~help:"Sharing fallbacks to an independent engine")

let admission_reject t reason =
  Counter.inc
    (Registry.counter t.registry "serve_admission_rejects_total"
       ~labels:[ ("reason", reason) ]
       ~help:"Registrations refused by admission control")

let tenant_count t tenant =
  Hashtbl.fold (fun _ q n -> if q.q_tenant = tenant then n + 1 else n) t.queries 0

let refresh_tenant t tenant =
  Gauge.set
    (Registry.gauge t.registry "serve_tenant_queries"
       ~labels:[ ("tenant", tenant) ]
       ~help:"Registered queries per tenant")
    (float_of_int (tenant_count t tenant))

let refresh_gauges t =
  Gauge.set t.queries_g (float_of_int (Hashtbl.length t.queries));
  Gauge.set t.groups_g (float_of_int (List.length t.groups));
  Gauge.set t.engines_g
    (float_of_int
       (List.length (List.filter (fun g -> Option.is_some g.g_engine) t.groups)));
  let shared =
    List.fold_left
      (fun acc g ->
        match g.g_members with
        | _ :: _ :: _ -> acc + List.length g.g_members
        | _ -> acc)
      0 t.groups
  in
  Gauge.set t.shared_g (float_of_int shared);
  Gauge.set t.wm_g (float_of_int t.wm)

(* ---- engines ---- *)

let engine_row_count = function
  | E_direct x -> Stream_exec.row_count x
  | E_durable c -> Checkpoint.row_count c

let engine_row e i =
  match e with
  | E_direct x -> Stream_exec.row x i
  | E_durable c -> Checkpoint.row c i

let engine_feed_batch e b =
  match e with
  | E_direct x -> Stream_exec.feed_batch x b
  | E_durable c -> Checkpoint.feed_batch c b

let engine_close e ~horizon =
  match e with
  | E_direct x -> ignore (Stream_exec.close x ~horizon)
  | E_durable c -> ignore (Checkpoint.close c ~horizon)

let drain_group t g =
  match g.g_engine with
  | None -> ()
  | Some e ->
      let n = engine_row_count e in
      while g.g_drained < n do
        let r = engine_row e g.g_drained in
        List.iter
          (fun q ->
            if
              g.g_drained >= q.q_from
              && List.exists (Window.equal r.Row.window) q.q_exposed
            then begin
              Vec.push q.q_rows g.g_drained;
              Counter.inc q.q_rows_c;
              Counter.inc t.rows_c
            end)
          g.g_members;
        g.g_drained <- g.g_drained + 1
      done

let drain_all t = List.iter (drain_group t) t.groups

(* Every budgeted group runs under its own pool (the engines share one
   accept domain, but per-group pools keep the series and the spill
   files apart); the configured budget is split evenly across the pools
   that exist, re-split whenever one comes or goes. *)
let rebalance_pools t =
  match t.cfg.memory_budget with
  | None -> ()
  | Some total -> (
      match List.filter_map (fun g -> g.g_spill) t.groups with
      | [] -> ()
      | pools ->
          let share = total / List.length pools in
          List.iter (fun p -> Fw_spill.Pool.set_budget p share) pools)

let ensure_pool t g =
  match (g.g_spill, t.cfg.memory_budget) with
  | Some _, _ | _, None -> ()
  | None, Some total ->
      g.g_spill <-
        Some
          (Fw_spill.Pool.create ~registry:t.registry
             ~labels:[ ("group", string_of_int g.g_id) ]
             ~budget:total ());
      rebalance_pools t

let drop_pool t g =
  match g.g_spill with
  | None -> ()
  | Some p ->
      g.g_spill <- None;
      Fw_spill.Pool.close p;
      rebalance_pools t

let ensure_engine t g =
  if not (Option.is_some g.g_engine) then begin
    ensure_pool t g;
    let e =
      match t.cfg.state_dir with
      | Some sd ->
          (* an unfrozen group has no durable history: whatever sits at
             its path was left by a process that died before logging
             [F], and a fresh pipeline refuses a used directory *)
          rm_rf (group_dir sd g.g_id);
          E_durable
            (Checkpoint.create
               ~dir:(group_dir sd g.g_id)
               ~every:t.cfg.every ~mode:(mode t) ~observe:false
               ?spill:g.g_spill g.g_plan)
      | None ->
          E_direct
            (Stream_exec.create ~mode:(mode t) ~observe:false ?spill:g.g_spill
               g.g_plan)
    in
    g.g_engine <- Some e;
    g.g_frozen <- true;
    (* logged after the directory exists, so a frozen group always has
       something to recover from *)
    manifest_append t (Printf.sprintf "F %d" g.g_id)
  end

(* ---- sharing placement ---- *)

let chain_ok ~member ~group =
  match Share.compatible ~member ~group with Ok () -> true | Error _ -> false

(* How (whether) a registration may join group [g].  [Ok None]: join
   as-is; [Ok (Some (plan, union))]: join after re-planning the group
   over the merged window set; [Error reason]: degrade. *)
let try_join t g ~plan ~windows =
  if g.g_frozen then
    if chain_ok ~member:plan ~group:g.g_plan then Ok None
    else Error "frozen-group"
  else if
    List.for_all (fun w -> List.exists (Window.equal w) g.g_union) windows
    && chain_ok ~member:plan ~group:g.g_plan
  then Ok None
  else begin
    let union = Share.union_windows g.g_union windows in
    let outcome =
      Rewrite.optimize ~eta:t.cfg.eta ~factor_windows:t.cfg.factor_windows
        ?filter:g.g_key.Share.filter g.g_key.Share.agg union
    in
    let plan' = outcome.Rewrite.plan in
    if
      chain_ok ~member:plan ~group:plan'
      && List.for_all (fun m -> chain_ok ~member:m.q_plan ~group:plan') g.g_members
    then Ok (Some (plan', union))
    else Error "plan-mismatch"
  end

let new_group t ~key ~plan ~windows =
  let g =
    {
      g_id = t.next_gid;
      g_key = key;
      g_members = [];
      g_plan = plan;
      g_union = windows;
      g_frozen = false;
      g_engine = None;
      g_spill = None;
      g_drained = 0;
      g_log = Buffer.create 1024;
      g_ends = Vec.create ();
    }
  in
  t.next_gid <- t.next_gid + 1;
  t.groups <- t.groups @ [ g ];
  g

let place t ~key ~plan ~windows =
  if not t.cfg.sharing then `New
  else
    let rec go = function
      | [] -> `New
      | g :: gs when Share.key_equal g.g_key key -> (
          match try_join t g ~plan ~windows with
          | Ok replan -> `Join (g, replan)
          | Error reason ->
              degrade t reason;
              go gs)
      | _ :: gs -> go gs
    in
    go t.groups

(* ---- registration ---- *)

let do_register t ~id ~from_recorded ~tenant text =
  if Hashtbl.length t.queries >= t.cfg.max_queries then begin
    admission_reject t "max-queries";
    Error (Admission "max-queries: the server is at capacity")
  end
  else if tenant_count t tenant >= t.cfg.tenant_quota then begin
    admission_reject t "tenant-quota";
    Error
      (Admission (Printf.sprintf "tenant-quota: tenant %s is at capacity" tenant))
  end
  else
    let t0 = Clock.now_ns () in
    match Fw_sql.Normalize.canonical text with
    | Error e -> Error (Bad_request ("parse error: " ^ e))
    | Ok canon -> (
        let cached, compiled_r =
          match Plan_cache.find t.cache canon with
          | Some c -> (true, Ok c)
          | None -> (
              match
                Fw_sql.Compile.compile ~eta:t.cfg.eta
                  ~factor_windows:t.cfg.factor_windows canon
              with
              | Ok c ->
                  Plan_cache.add t.cache canon c;
                  (false, Ok c)
              | Error e -> (false, Error e))
        in
        match compiled_r with
        | Error e -> Error (Bad_request e)
        | Ok compiled ->
            let key = Share.key_of compiled.Fw_sql.Compile.analysis in
            let plan = compiled.Fw_sql.Compile.outcome.Rewrite.plan in
            let exposed = Plan.exposed_windows plan in
            let placement = place t ~key ~plan ~windows:exposed in
            let budget_blocks =
              (* one more group would shrink every pool's share below
                 the floor; joins add no pool, so they always fit.
                 Replay skips the check: those groups were admitted. *)
              match (placement, t.cfg.memory_budget) with
              | `New, Some total ->
                  (not t.replaying)
                  && total / (List.length t.groups + 1) < min_group_budget
              | _ -> false
            in
            if budget_blocks then begin
              admission_reject t "memory-budget";
              Error
                (Admission
                   (Printf.sprintf
                      "memory-budget: %d bytes across %d groups leaves less \
                       than the %d-byte per-group floor"
                      (Option.value t.cfg.memory_budget ~default:0)
                      (List.length t.groups + 1)
                      min_group_budget))
            end
            else
            let g, joined =
              match placement with
              | `New -> (new_group t ~key ~plan ~windows:exposed, false)
              | `Join (g, replan) ->
                  (match replan with
                  | Some (plan', union) ->
                      g.g_plan <- plan';
                      g.g_union <- union
                  | None -> ());
                  (g, true)
            in
            let qid = match id with Some i -> i | None -> t.next_qid in
            t.next_qid <- max t.next_qid (qid + 1);
            let from =
              match from_recorded with
              | Some f -> f
              | None -> (
                  match g.g_engine with
                  | Some e -> engine_row_count e
                  | None -> 0)
            in
            let q =
              {
                q_id = qid;
                q_tenant = tenant;
                q_text = canon;
                q_plan = plan;
                q_exposed = exposed;
                q_from = from;
                q_group = g;
                q_rows = Vec.create ();
                q_rows_c =
                  Registry.counter t.registry "serve_query_rows_total"
                    ~labels:
                      [ ("query", string_of_int qid); ("tenant", tenant) ]
                    ~help:"Rows delivered to this query's tap";
              }
            in
            g.g_members <- g.g_members @ [ q ];
            Hashtbl.replace t.queries qid q;
            if joined then Counter.inc t.share_joins_c;
            let dt = Clock.elapsed_ns ~since:t0 in
            if cached then begin
              Counter.inc t.reg_hit_c;
              Histogram.record t.reg_hit_ns dt
            end
            else begin
              Counter.inc t.reg_miss_c;
              Histogram.record t.reg_miss_ns dt
            end;
            manifest_append t (Printf.sprintf "R %d %d %S %S" qid from tenant canon);
            refresh_gauges t;
            refresh_tenant t tenant;
            Ok
              {
                r_id = qid;
                r_cached = cached;
                r_shared =
                  (match g.g_members with _ :: _ :: _ -> true | _ -> false);
                r_group = g.g_id;
                r_windows = List.length exposed;
              })

let register t ~tenant text =
  if t.closed then Error Closed
  else do_register t ~id:None ~from_recorded:None ~tenant text

let unregister t id =
  match Hashtbl.find_opt t.queries id with
  | None -> Error (Unknown_query id)
  | Some q ->
      Hashtbl.remove t.queries id;
      t.groups <-
        List.filter_map
          (fun g ->
            if g != q.q_group then Some g
            else begin
              g.g_members <- List.filter (fun m -> m.q_id <> id) g.g_members;
              if g.g_members <> [] then Some g
              else begin
                (* last member gone: drop the engine and its directory *)
                (match (g.g_engine, t.cfg.state_dir) with
                | Some (E_durable c), Some sd ->
                    (try ignore (Checkpoint.close c ~horizon:t.wm)
                     with Invalid_argument _ -> ());
                    rm_rf (group_dir sd g.g_id)
                | _, Some sd -> rm_rf (group_dir sd g.g_id)
                | _ -> ());
                (match g.g_spill with
                | Some p ->
                    g.g_spill <- None;
                    Fw_spill.Pool.close p
                | None -> ());
                None
              end
            end)
          t.groups;
      (* a freed pool's share flows back to the survivors *)
      rebalance_pools t;
      Counter.inc t.unregistered_c;
      manifest_append t (Printf.sprintf "U %d" id);
      refresh_gauges t;
      refresh_tenant t q.q_tenant;
      Ok ()

(* ---- queries over the catalog ---- *)

let info_of q =
  let g = q.q_group in
  let spill =
    match g.g_spill with
    | Some p ->
        Some
          {
            s_budget = Fw_spill.Pool.budget p;
            s_resident_bytes = Fw_spill.Pool.resident_bytes p;
            s_resident_keys = Fw_spill.Pool.resident_keys p;
            s_disk_bytes = Fw_spill.Pool.disk_bytes p;
          }
    | None -> None
  in
  {
    i_id = q.q_id;
    i_tenant = q.q_tenant;
    i_text = q.q_text;
    i_group = g.g_id;
    i_shared = (match g.g_members with _ :: _ :: _ -> true | _ -> false);
    i_windows = List.length q.q_exposed;
    i_rows = Vec.length q.q_rows;
    i_spill = spill;
  }

let query_info t id =
  match Hashtbl.find_opt t.queries id with
  | None -> Error (Unknown_query id)
  | Some q -> Ok (info_of q)

let list_queries t =
  Hashtbl.fold (fun _ q acc -> q :: acc) t.queries []
  |> List.sort (fun a b -> Int.compare a.q_id b.q_id)
  |> List.map info_of

(* A tap position [from] clamped into [0, length]. *)
let tap_from q from =
  let n = Vec.length q.q_rows in
  if from < 0 then 0 else if from > n then n else from

let rows_from t id ~from =
  match Hashtbl.find_opt t.queries id with
  | None -> Error (Unknown_query id)
  | Some q -> (
      match q.q_group.g_engine with
      | None -> Ok []
      | Some e ->
          let out = ref [] in
          for i = Vec.length q.q_rows - 1 downto tap_from q from do
            out := engine_row e (Vec.get q.q_rows i) :: !out
          done;
          Ok !out)

(* Extend the group's log through engine row [upto]. *)
let render t g e ~upto =
  while Vec.length g.g_ends <= upto do
    Fw_engine.Csv_io.add_row g.g_log (engine_row e (Vec.length g.g_ends));
    Vec.push g.g_ends (Buffer.length g.g_log);
    Counter.inc t.rendered_c
  done

let rows_csv t id ~from =
  match Hashtbl.find_opt t.queries id with
  | None -> Error (Unknown_query id)
  | Some q -> (
      let header = Fw_engine.Csv_io.rows_header in
      let from = tap_from q from and n = Vec.length q.q_rows in
      let g = q.q_group in
      match g.g_engine with
      | Some e when from < n ->
          render t g e ~upto:(Vec.get q.q_rows (n - 1));
          let start i = if i = 0 then 0 else Vec.get g.g_ends (i - 1) in
          let size = ref (String.length header) in
          for k = from to n - 1 do
            let i = Vec.get q.q_rows k in
            size := !size + Vec.get g.g_ends i - start i
          done;
          let body = Bytes.create !size in
          Bytes.blit_string header 0 body 0 (String.length header);
          let pos = ref (String.length header) in
          for k = from to n - 1 do
            let i = Vec.get q.q_rows k in
            let len = Vec.get g.g_ends i - start i in
            Buffer.blit g.g_log (start i) body !pos len;
            pos := !pos + len
          done;
          Ok (Bytes.unsafe_to_string body)
      | _ -> Ok header)

(* ---- the ingest stream ---- *)

let ordered_from wm events =
  let rec go prev = function
    | [] -> true
    | e :: tl -> e.Event.time >= prev && go e.Event.time tl
  in
  go wm events

let start_engines t =
  List.iter (ensure_engine t) t.groups;
  refresh_gauges t

(* One ingest: the same batch goes to every group's engine (starting
   the ones that have not run yet), then the new rows move into the
   taps and the watermark is logged. *)
let ingest t ~wm =
  start_engines t;
  List.iter
    (fun g -> Option.iter (fun e -> engine_feed_batch e t.batch) g.g_engine)
    t.groups;
  t.wm <- wm;
  drain_all t;
  Gauge.set t.wm_g (float_of_int t.wm);
  manifest_append t (Printf.sprintf "W %d" t.wm)

let feed t events =
  if t.closed then Error Closed
  else if events = [] then Ok 0 (* nothing to feed: don't freeze groups *)
  else if not (ordered_from t.wm events) then
    Error
      (Bad_request "events must be time-ordered and not older than the watermark")
  else begin
    Batch.reset t.batch;
    List.iter (Batch.push t.batch) events;
    let n = Batch.length t.batch in
    ingest t ~wm:(max t.wm (Batch.time t.batch (n - 1)));
    Counter.add t.ingested_c n;
    Ok n
  end

let advance t time =
  if t.closed then Error Closed
  else if time < t.wm then
    Error (Bad_request "cannot advance behind the watermark")
  else begin
    Batch.reset t.batch;
    Batch.push_punct t.batch time;
    ingest t ~wm:time;
    Ok ()
  end

let close t ~horizon =
  if t.closed then Error Closed
  else if horizon < t.wm then
    Error (Bad_request "cannot close behind the watermark")
  else begin
    start_engines t;
    List.iter
      (fun g ->
        match g.g_engine with Some e -> engine_close e ~horizon | None -> ())
      t.groups;
    drain_all t;
    t.wm <- horizon;
    t.closed <- true;
    (* taps stay readable; only the engines' scratch spill files go *)
    List.iter (fun g -> drop_pool t g) t.groups;
    (match t.manifest with Some oc -> close_out oc | None -> ());
    t.manifest <- None;
    refresh_gauges t;
    Ok ()
  end

let checkpoint t =
  if t.closed then Error Closed
  else
    match t.cfg.state_dir with
    | None -> Error (Bad_request "the server has no state directory")
    | Some _ ->
        List.iter
          (fun g ->
            match g.g_engine with
            | Some (E_durable c) -> Checkpoint.checkpoint_now c
            | _ -> ())
          t.groups;
        Ok ()

(* ---- construction, manifest replay, recovery ---- *)

let make ?registry cfg =
  let registry = match registry with Some r -> r | None -> Registry.create () in
  let cache = Plan_cache.create ~capacity:cfg.cache_capacity registry in
  {
    cfg;
    registry;
    cache;
    queries = Hashtbl.create 64;
    groups = [];
    batch = Batch.create ();
    next_qid = 1;
    next_gid = 0;
    wm = 0;
    closed = false;
    manifest = None;
    replaying = false;
    reg_hit_c =
      Registry.counter registry "serve_registrations_total"
        ~labels:[ ("cache", "hit") ]
        ~help:"Queries registered";
    reg_miss_c =
      Registry.counter registry "serve_registrations_total"
        ~labels:[ ("cache", "miss") ]
        ~help:"Queries registered";
    reg_hit_ns =
      Registry.histogram registry "serve_register_ns"
        ~labels:[ ("cache", "hit") ]
        ~help:"Registration latency (normalize, cache, place)";
    reg_miss_ns =
      Registry.histogram registry "serve_register_ns"
        ~labels:[ ("cache", "miss") ]
        ~help:"Registration latency (normalize, compile, place)";
    share_joins_c =
      Registry.counter registry "serve_share_joins_total"
        ~help:"Registrations merged into an existing group";
    ingested_c =
      Registry.counter registry "serve_events_ingested_total"
        ~help:"Events accepted into the shared stream";
    rows_c =
      Registry.counter registry "serve_rows_total"
        ~help:"Rows delivered across all query taps";
    rendered_c =
      Registry.counter registry "serve_rows_rendered_total"
        ~help:"Group rows rendered to CSV (each at most once)";
    unregistered_c =
      Registry.counter registry "serve_unregistered_total"
        ~help:"Queries unregistered";
    queries_g = Registry.gauge registry "serve_queries" ~help:"Registered queries";
    groups_g = Registry.gauge registry "serve_groups" ~help:"Sharing groups";
    engines_g = Registry.gauge registry "serve_engines" ~help:"Running engines";
    shared_g =
      Registry.gauge registry "serve_shared_queries"
        ~help:"Queries served by a multi-member group";
    wm_g =
      Registry.gauge registry "serve_watermark_ticks"
        ~help:"Server watermark (event time)";
  }

let replay_line t line =
  let scan fmt k =
    try Ok (Scanf.sscanf line fmt k) with
    | Scanf.Scan_failure m | Failure m ->
        Error (Printf.sprintf "manifest: %s: %s" m line)
    | End_of_file -> Error ("manifest: truncated line: " ^ line)
  in
  let flatten = function Ok r -> r | Error _ as e -> e in
  if line = "" then Ok ()
  else
    match line.[0] with
    | 'R' ->
        flatten
          (scan "R %d %d %S %S" (fun id from tenant text ->
               match
                 do_register t ~id:(Some id) ~from_recorded:(Some from) ~tenant
                   text
               with
               | Ok _ -> Ok ()
               | Error r ->
                   Error
                     (Printf.sprintf "manifest: replaying query %d: %s" id
                        (reject_message r))))
    | 'U' ->
        flatten
          (scan "U %d" (fun id ->
               match unregister t id with
               | Ok () -> Ok ()
               | Error r ->
                   Error
                     (Printf.sprintf "manifest: replaying unregister %d: %s" id
                        (reject_message r))))
    | 'F' ->
        flatten
          (scan "F %d" (fun gid ->
               match List.find_opt (fun g -> g.g_id = gid) t.groups with
               | Some g ->
                   g.g_frozen <- true;
                   Ok ()
               | None ->
                   Error (Printf.sprintf "manifest: no group %d to freeze" gid)))
    | 'W' ->
        flatten
          (scan "W %d" (fun wm ->
               t.wm <- max t.wm wm;
               Ok ()))
    | _ -> Error ("manifest: unparseable line: " ^ line)

let replay_manifest t path =
  let ic = open_in path in
  let rec loop () =
    match input_line ic with
    | line -> ( match replay_line t line with Ok () -> loop () | Error _ as e -> e)
    | exception End_of_file -> Ok ()
  in
  let r = loop () in
  close_in ic;
  r

let recover_groups t sd =
  let rec go = function
    | [] -> Ok ()
    | g :: gs ->
        if not g.g_frozen then go gs
        else (
          ensure_pool t g;
          match
            Recover.load
              ~dir:(group_dir sd g.g_id)
              ~every:t.cfg.every ~observe:false ~mode:(mode t)
              ?spill:g.g_spill g.g_plan
          with
          | Ok r ->
              g.g_engine <- Some (E_durable r.Recover.checkpoint);
              go gs
          | Error e -> Error (Printf.sprintf "recovering group %d: %s" g.g_id e))
  in
  go t.groups

let create ?registry cfg =
  if cfg.max_queries < 1 then Error "max_queries must be >= 1"
  else if cfg.tenant_quota < 1 then Error "tenant_quota must be >= 1"
  else if cfg.cache_capacity < 1 then Error "cache_capacity must be >= 1"
  else if cfg.every < 1 then Error "every must be >= 1"
  else if
    match cfg.memory_budget with Some b -> b < 0 | None -> false
  then Error "memory_budget must be >= 0 bytes"
  else
    let t = make ?registry cfg in
    match cfg.state_dir with
    | None -> Ok t
    | Some sd -> (
        mkdir_p sd;
        let mpath = manifest_path sd in
        let replayed =
          if Sys.file_exists mpath then begin
            t.replaying <- true;
            let r = replay_manifest t mpath in
            t.replaying <- false;
            r
          end
          else Ok ()
        in
        match replayed with
        | Error e -> Error e
        | Ok () -> (
            match recover_groups t sd with
            | Error e -> Error e
            | Ok () ->
                (* recovered row history rebuilds every tap *)
                drain_all t;
                refresh_gauges t;
                t.manifest <-
                  Some
                    (open_out_gen
                       [ Open_wronly; Open_append; Open_creat ]
                       0o644 mpath);
                Ok t))
