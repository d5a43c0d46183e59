(** The multi-query server core: registration, shared execution,
    per-query result taps, admission control and durable restarts.

    One server owns one ingest stream.  Each registered query is
    compiled through the plan cache ({!Plan_cache}), then placed into a
    sharing {e group} ({!Share}): queries whose merged plan passes the
    chain condition execute on one engine, everything else degrades to
    an independent engine — so N registered queries cost between 1 and
    N engines, and every query's rows are byte-identical to what an
    independent [fwopt run] of its text would produce (the served
    differential path in {!Fw_check} fuzzes exactly this).

    Group lifecycle: a group is freely re-planned while no engine has
    started (registrations merge window sets and re-optimize); once the
    ingest stream starts its engine ({e frozen}), later registrations
    join only when their plan is chain-compatible with the running plan
    as-is — there is no operator-state migration.  A query joining a
    running engine only sees rows emitted from its registration onward.

    Durability: with a state directory, each group runs under
    {!Fw_snap.Checkpoint} in [g<id>/], and a manifest log
    ([queries.log]) records every registration ([R]), unregistration
    ([U]) and engine start ([F]).  {!create} replays the manifest —
    grouping is deterministic, so the same groups and plans are rebuilt
    warm from the plan cache — then recovers every started engine with
    {!Fw_snap.Recover}; recovered row history rebuilds the taps, so a
    restart loses nothing.

    The server is {e not} locked: drive it from one domain (the HTTP
    layer runs handlers sequentially in the accept domain, which is
    exactly that). *)

type config = {
  eta : int;  (** events per tick for the cost model *)
  incremental : bool;  (** engine execution mode *)
  factor_windows : bool;  (** allow Algorithm 2 factor windows *)
  sharing : bool;  (** [false]: every query gets its own engine *)
  max_queries : int;
  tenant_quota : int;  (** per-tenant registered-query cap *)
  cache_capacity : int;
  state_dir : string option;  (** durable mode when set *)
  every : int;  (** checkpoint cadence (events) in durable mode *)
  memory_budget : int option;
      (** total resident-state budget in bytes, split evenly across the
          groups' {!Fw_spill.Pool}s (re-split as groups come and go).
          A registration that would create a group whose share falls
          below the 64 KiB floor is refused ([Admission
          "memory-budget"] — HTTP 429). *)
}

val default_config : config
(** eta 1, naive mode, factor windows on, sharing on, 64 queries,
    16 per tenant, cache 128, no state dir, checkpoint every 1000,
    no memory budget. *)

type reject =
  | Closed  (** the stream was closed; terminal *)
  | Admission of string  (** quota refusals; the payload is the reason *)
  | Bad_request of string
  | Unknown_query of int

val reject_message : reject -> string

type registered = {
  r_id : int;
  r_cached : bool;  (** plan-cache hit *)
  r_shared : bool;  (** placed in a group with other queries *)
  r_group : int;
  r_windows : int;
}

type spill_info = {
  s_budget : int;  (** the group's current share of the memory budget *)
  s_resident_bytes : int;
  s_resident_keys : int;
  s_disk_bytes : int;
}

type query_info = {
  i_id : int;
  i_tenant : string;
  i_text : string;  (** canonical *)
  i_group : int;
  i_shared : bool;
  i_windows : int;
  i_rows : int;
  i_spill : spill_info option;
      (** the group's pool accounting; [None] unbudgeted or engine not
          started *)
}

type t

val create : ?registry:Fw_obs.Registry.t -> config -> (t, string) result
(** With a state directory this replays the manifest and recovers every
    started engine, failing closed on an unreadable manifest or an
    unrecoverable group. *)

val registry : t -> Fw_obs.Registry.t
val config : t -> config

val register : t -> tenant:string -> string -> (registered, reject) result
val unregister : t -> int -> (unit, reject) result
val query_info : t -> int -> (query_info, reject) result
val list_queries : t -> query_info list

val rows_from : t -> int -> from:int -> (Fw_engine.Row.t list, reject) result
(** The query's result tap in emission order, from cursor position
    [from] (clamped into range); poll with [from] = rows already seen
    to stream results incrementally. *)

val rows_csv : t -> int -> from:int -> (string, reject) result
(** The same tap positions as {!rows_from}, as the CSV body of
    [GET /query/ID/rows]: {!Fw_engine.Csv_io.rows_header} then one
    {!Fw_engine.Csv_io.add_row} line per row, byte-identical to
    [rows_to_csv] of the {!rows_from} result.  Each sharing group keeps
    one log of its engine rows rendered to CSV, extended on demand
    through the highest row a poll needs, so a group row is rendered
    at most once however many member taps read it (counted by
    [serve_rows_rendered_total]); the body is then copied out of that
    log line by line.  Ingest renders nothing. *)

val feed : t -> Fw_engine.Event.t list -> (int, reject) result
(** Feed ordered events to every group's engine (starting engines that
    have not run yet) and drain new rows into the taps.  The events are
    validated first: they must be non-decreasing in time and none may
    be older than the server watermark — on violation nothing is fed.
    One ingest is one {!Fw_engine.Batch.t}, handed whole to each
    engine's [feed_batch]: at the ingest boundary every engine holds
    exactly the rows per-event feeding would have emitted, and within
    the ingest a tap holds its rows in the batched emission order
    (which may interleave windows differently from per-event
    emission).  Returns the number of events ingested. *)

val advance : t -> int -> (unit, reject) result
(** Punctuation: a punctuation-only batch to every engine, firing every
    instance ending at or before the time. *)

val close : t -> horizon:int -> (unit, reject) result
(** Advance all engines to the horizon and stop accepting input —
    engines for never-fed groups are started first so their (empty)
    output is flushed too.  Taps remain readable. *)

val checkpoint : t -> (unit, reject) result
(** Force a snapshot of every running engine (durable mode only). *)

val is_closed : t -> bool
val watermark : t -> int
val query_count : t -> int
val group_count : t -> int
