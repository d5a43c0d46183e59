module Counter = Fw_obs.Counter
module Histogram = Fw_obs.Histogram
module Clock = Fw_obs.Clock
module Metrics = Fw_engine.Metrics
module Stream_exec = Fw_engine.Stream_exec
module Batch = Fw_engine.Batch
module Bin = Fw_spill.Bin

let chk_name g = Printf.sprintf "chk-%09d.fws" g
let wal_name g = Printf.sprintf "wal-%09d.log" g
let rows_name = "rows.log"

let parse_seq ~prefix ~suffix name =
  let pl = String.length prefix and sl = String.length suffix in
  let n = String.length name in
  if
    n > pl + sl
    && String.sub name 0 pl = prefix
    && String.sub name (n - sl) sl = suffix
  then int_of_string_opt (String.sub name pl (n - pl - sl))
  else None

let chk_seq = parse_seq ~prefix:"chk-" ~suffix:".fws"
let wal_seq = parse_seq ~prefix:"wal-" ~suffix:".log"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ())
  end

type obs = {
  checkpoints_c : Counter.t;
  bytes_h : Histogram.t;
  pause_h : Histogram.t;
}

type t = {
  dir : string;
  every : int;
  on_punctuation : bool;
  retain : int;
  fault : Fault.t;
  metrics : Metrics.t;
  exec : Stream_exec.t;
  obs : obs option;
  scratch : Batch.t;  (* the one-slot batch behind [feed] and [advance] *)
  frames : Bin.frames;  (* WAL and row-log records, framed once *)
  writer : Codec.writer;  (* snapshot frames: fingerprint and buffers *)
  image : Buffer.t;  (* the engine image, kept across snapshots *)
  mutable seq : int;  (* highest checkpoint sequence written / inherited *)
  mutable wal : out_channel option;  (* Some once construction finishes *)
  mutable rows_oc : out_channel option;  (* append-only emitted-row log *)
  mutable rows_seen : int;  (* rows drained to the row log (buffered) *)
  mutable since : int;  (* events since last checkpoint *)
  mutable ordinal : int;  (* events fed by this process, drives Fault *)
  mutable closed : bool;
}

let metrics t = t.metrics
let seq t = t.seq

(* Incremental row access for drivers that stream results out while
   the pipeline runs (the query server's per-query taps).  Delegates
   to the executor's row store, which on a resumed pipeline already
   holds the recovered emission history (Recover imports the row log's
   covered prefix), so a tap rebuilt after a restart sees every row
   ever emitted. *)
let row_count t = Stream_exec.row_count t.exec
let row t i = Stream_exec.row t.exec i

let make_obs ~observe metrics =
  if not observe then None
  else
    let registry = Metrics.registry metrics in
    Some
      {
        checkpoints_c =
          Fw_obs.Registry.counter registry "snap_checkpoints_total"
            ~help:"Snapshots written (write-then-rename)";
        bytes_h =
          Fw_obs.Registry.histogram registry "snap_checkpoint_bytes"
            ~help:"Encoded snapshot size per checkpoint";
        pause_h =
          Fw_obs.Registry.histogram registry "snap_checkpoint_pause_ns"
            ~help:"Pipeline pause per checkpoint (encode + write + rename)";
      }

let wal t = match t.wal with Some oc -> oc | None -> assert false

(* Hand the framed WAL records to the log and make them durable: one
   output and one flush per piece. *)
let flush_wal t =
  let oc = wal t in
  Bin.output_frames oc t.frames;
  flush oc

(* Frame newly-emitted rows and copy them into the row log's channel
   buffer.  Not flushed here — row durability is only promised up to
   the last checkpoint, so the flush happens in [checkpoint_now] (and
   [close]). *)
let drain_rows t =
  match t.rows_oc with
  | Some oc ->
      let n = Stream_exec.row_count t.exec in
      while t.rows_seen < n do
        Codec.add_row t.frames (Stream_exec.row t.exec t.rows_seen);
        t.rows_seen <- t.rows_seen + 1;
        if Bin.frames_full t.frames then Bin.output_frames oc t.frames
      done;
      Bin.output_frames oc t.frames
  | None -> assert false

let prune t =
  let oldest = max 1 (t.seq - t.retain + 1) in
  Array.iter
    (fun f ->
      let stale =
        match chk_seq f with
        | Some g -> g < oldest
        | None -> (
            (* keep one log segment below the oldest snapshot so
               recovery can still fall back past a corrupt newest one *)
            match wal_seq f with Some g -> g < oldest - 1 | None -> false)
      in
      if stale then try Sys.remove (Filename.concat t.dir f) with Sys_error _ -> ())
    (Sys.readdir t.dir)

let checkpoint_now t =
  if t.closed then invalid_arg "Checkpoint: already closed";
  let t0 = Clock.now_ns () in
  (* make the row-log prefix durable before the snapshot that claims
     it: a valid snapshot's count never exceeds the decodable log *)
  drain_rows t;
  (match t.rows_oc with Some oc -> flush oc | None -> ());
  Buffer.clear t.image;
  Stream_exec.export_into t.image t.exec;
  let g = t.seq + 1 in
  let final = Filename.concat t.dir (chk_name g) in
  let tmp = final ^ ".tmp" in
  let bytes =
    Out_channel.with_open_bin tmp (fun oc ->
        Codec.output_snapshot t.writer oc ~rows_persisted:t.rows_seen
          ~ingested:(Metrics.ingested t.metrics)
          ~processed:(Metrics.per_window t.metrics)
          t.image)
  in
  Sys.rename tmp final;
  Fault.on_checkpoint_written t.fault final;
  (* rotate the log: segment [g] holds exactly the post-checkpoint-[g]
     input, so recovery from snapshot [g] replays segments [g..] *)
  (match t.wal with Some oc -> close_out oc | None -> ());
  t.wal <- Some (open_out_bin (Filename.concat t.dir (wal_name g)));
  t.seq <- g;
  t.since <- 0;
  prune t;
  match t.obs with
  | Some o ->
      Counter.inc o.checkpoints_c;
      Histogram.record o.bytes_h bytes;
      Histogram.record o.pause_h (Clock.elapsed_ns ~since:t0)
  | None -> ()

let make ~dir ~every ~on_punctuation ~retain ~fault ~observe ~plan ~mode
    ~metrics ~exec ~seq =
  if every < 1 then invalid_arg "Checkpoint: every must be >= 1";
  if retain < 1 then invalid_arg "Checkpoint: retain must be >= 1";
  mkdir_p dir;
  {
    dir;
    every;
    on_punctuation;
    retain;
    fault;
    metrics;
    exec;
    obs = make_obs ~observe metrics;
    scratch = Batch.create ();
    frames = Bin.frames ();
    writer = Codec.writer ~plan ~mode;
    image = Buffer.create 4096;
    seq;
    wal = None;
    rows_oc = None;
    rows_seen = 0;
    since = 0;
    ordinal = 0;
    closed = false;
  }

(* A fresh pipeline must not share its directory with an earlier one:
   stale snapshots and log segments would be numbered into the new
   run's, and recovery would read them as its own history. *)
let check_unused dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    match
      Array.find_opt
        (fun f -> chk_seq f <> None || wal_seq f <> None)
        (Sys.readdir dir)
    with
    | Some f ->
        invalid_arg
          (Printf.sprintf
             "Checkpoint.create: %s already holds checkpoint files (%s); \
              recover it or start from an empty directory"
             dir f)
    | None -> ()

let create ~dir ?(every = 1000) ?(on_punctuation = false) ?(retain = 3)
    ?(fault = Fault.passive ()) ?metrics ?(mode = Stream_exec.Naive)
    ?(observe = true) ?spill plan =
  check_unused dir;
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let exec = Stream_exec.create ~metrics ~mode ~observe ?spill plan in
  let t =
    make ~dir ~every ~on_punctuation ~retain ~fault ~observe ~plan ~mode
      ~metrics ~exec ~seq:0
  in
  t.wal <- Some (open_out_bin (Filename.concat dir (wal_name 0)));
  t.rows_oc <- Some (open_out_bin (Filename.concat dir rows_name));
  t

let resume ~dir ?(every = 1000) ?(on_punctuation = false) ?(retain = 3)
    ?(fault = Fault.passive ()) ?(observe = true) ~plan ~mode ~metrics ~seq
    ~rows_persisted exec =
  let t =
    make ~dir ~every ~on_punctuation ~retain ~fault ~observe ~plan ~mode
      ~metrics ~exec ~seq
  in
  (* recovery truncated the row log to exactly [rows_persisted] whole
     records; append after them.  Rows the executor re-emitted during
     WAL replay sit in its buffer beyond that point and are drained by
     the immediate checkpoint below. *)
  t.rows_oc <-
    Some
      (open_out_gen
         [ Open_wronly; Open_append; Open_binary ]
         0o644
         (Filename.concat dir rows_name));
  t.rows_seen <- rows_persisted;
  (* an immediate snapshot: the new process never appends to an old
     (possibly torn) log segment, it starts its own *)
  checkpoint_now t;
  t

(* The one ingest path; [feed] and [advance] below are one-slot
   batches of it.  The batch is validated against the engine's
   watermark before anything is logged, so a late event leaves no WAL
   record and no state change.  It is then cut into pieces at every
   point where the per-event path would have done something
   observable — a punctuation mark (advance + optional snapshot), the
   every-N checkpoint cadence, and the fault plan's crash ordinal —
   computed from the counters, not found by walking events.  Each
   piece is logged straight from the batch columns (one output and one
   flush, strictly before the events are fed) and reaches the engine
   as a column range; at each cut the engine state equals the
   per-event state, so snapshots taken at batch-internal punctuations
   recover byte-identically. *)
let feed_batch t b =
  if t.closed then invalid_arg "Checkpoint: already closed";
  Stream_exec.validate t.exec b;
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  (* feed events [!pos, hi) in pieces that end at the every-N cadence
     and at the crash ordinal, so a checkpoint or a crash only ever
     lands on the last event of a piece *)
  let pos = ref 0 in
  let feed_upto hi =
    while !pos < hi do
      let room = t.every - t.since in
      let room =
        match Fault.crash_at_event t.fault with
        | Some k -> min room (max 1 (k - t.ordinal))
        | None -> room
      in
      let lo = !pos in
      let stop = if room >= hi - lo then hi else lo + room in
      for i = lo to stop - 1 do
        Codec.add_event t.frames ~time:times.(i) ~key:keys.(i)
          ~value:values.(i);
        if Bin.frames_full t.frames then Bin.output_frames (wal t) t.frames
      done;
      flush_wal t;
      Stream_exec.feed_range t.exec b lo stop;
      drain_rows t;
      pos := stop;
      t.ordinal <- t.ordinal + (stop - lo);
      t.since <- t.since + (stop - lo);
      Fault.on_event t.fault t.ordinal;
      if t.since >= t.every then checkpoint_now t
    done
  in
  let n = Batch.length b in
  for j = 0 to Batch.mark_count b - 1 do
    let at, wm = Batch.mark b j in
    feed_upto (min at n);
    Codec.add_advance t.frames wm;
    flush_wal t;
    Stream_exec.advance t.exec wm;
    drain_rows t;
    if t.on_punctuation then checkpoint_now t
  done;
  feed_upto n

let feed t e =
  Batch.reset t.scratch;
  Batch.push t.scratch e;
  feed_batch t t.scratch

let advance t time =
  Batch.reset t.scratch;
  Batch.push_punct t.scratch time;
  feed_batch t t.scratch

let close t ~horizon =
  if t.closed then invalid_arg "Checkpoint: already closed";
  let rows = Stream_exec.close t.exec ~horizon in
  t.closed <- true;
  (match t.wal with Some oc -> close_out oc | None -> ());
  t.wal <- None;
  (* the horizon flush emits the last rows; make the log complete *)
  drain_rows t;
  (match t.rows_oc with Some oc -> close_out oc | None -> ());
  t.rows_oc <- None;
  rows
