(* Versioned, CRC-guarded binary codec for engine snapshots and the
   write-ahead event log.

   Everything is hand-rolled over [Buffer] / [String] — no new
   dependencies.  Integers are fixed 64-bit little-endian (an OCaml
   [int] round-trips losslessly through [Int64]); floats are their IEEE
   bit patterns, so a decoded state is bit-identical to the encoded
   one, which the recovery subsystem's byte-identical-results guarantee
   rests on.  Strings and lists are length-prefixed with bounds checks
   so a corrupted length can never trigger a giant allocation.

   A snapshot frame is:

     "FWSNAP" | version u16 | plan fingerprint i64 | payload len i64
     | payload | crc32(payload) u32

   Decoding fails closed: unknown version, mismatched plan fingerprint
   (the FNV-1a hash of the plan's structural rendering plus the
   execution mode), truncation, and CRC mismatch each produce a
   descriptive [Error] — never a garbage state. *)

module Combine = Fw_agg.Combine
module Swag = Fw_agg.Swag
module Pane = Fw_agg.Pane
module Aggregate = Fw_agg.Aggregate
module Stream_exec = Fw_engine.Stream_exec
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Window = Fw_window.Window
module Interval = Fw_window.Interval
module Plan = Fw_plan.Plan

(* Three codecs, one per level of the dependency graph: {!Fw_spill.Bin}
   holds the byte-level primitives, CRC and log framing (the spill store
   serializes evicted entries with them), {!Fw_agg.Bincodec} encodes
   aggregate states and sliding queues on top, and this module adds
   windows, operator exports, snapshots and the WAL.  It calls the two
   lower layers directly. *)
module Bin = Fw_spill.Bin
module Bincodec = Fw_agg.Bincodec

exception Corrupt = Bin.Corrupt

(* v2: windows carry a family tag byte (time hop / count hop /
   session) and node exports add the count-window (tag 3) and
   session-window (tag 4) operator states. *)
let version = 2
let magic = "FWSNAP"
let crc32 = Bin.crc32

(* --- aggregate state ----------------------------------------------- *)

let state_to_string st =
  let b = Buffer.create 32 in
  Bincodec.w_state b st;
  Buffer.contents b

let state_of_string s =
  let r = Bin.reader s in
  let st = Bincodec.r_state r in
  if Bin.remaining r <> 0 then
    Bin.corrupt "trailing bytes after aggregate state (%d)" (Bin.remaining r);
  st

(* --- sliding queue / pane ------------------------------------------ *)

let w_pane b (x : Pane.export) =
  Bin.w_list b
    (fun b (k, st) ->
      Bin.w_string b k;
      Bincodec.w_state b st)
    x.Pane.x_entries;
  Bin.w_i64 b x.Pane.x_adds;
  Bin.w_i64 b x.Pane.x_merges

let r_pane r =
  let x_entries =
    Bin.r_list r (fun r ->
        let k = Bin.r_string r in
        let st = Bincodec.r_state r in
        (k, st))
  in
  let x_adds = Bin.r_i64 r in
  let x_merges = Bin.r_i64 r in
  { Pane.x_entries; x_adds; x_merges }

(* --- windows, rows, events ----------------------------------------- *)

(* Family tag byte: 0 = time hop, 1 = count hop, 2 = session (the v2
   framing addition). *)
let w_window b (w : Window.t) =
  match w with
  | Window.Hop { domain = Window.Time; range; slide } ->
      Bin.w_u8 b 0;
      Bin.w_i64 b range;
      Bin.w_i64 b slide
  | Window.Hop { domain = Window.Count; range; slide } ->
      Bin.w_u8 b 1;
      Bin.w_i64 b range;
      Bin.w_i64 b slide
  | Window.Session { gap } ->
      Bin.w_u8 b 2;
      Bin.w_i64 b gap

let r_window r =
  let tag = Bin.r_u8 r in
  try
    match tag with
    | 0 ->
        let range = Bin.r_i64 r in
        let slide = Bin.r_i64 r in
        Window.make ~range ~slide
    | 1 ->
        let range = Bin.r_i64 r in
        let slide = Bin.r_i64 r in
        Window.count_hop ~range ~slide
    | 2 ->
        let gap = Bin.r_i64 r in
        Window.session ~gap
    | tag -> Bin.corrupt "unknown window family tag %d" tag
  with Invalid_argument m -> Bin.corrupt "invalid window in snapshot: %s" m

let w_row b (row : Row.t) =
  w_window b row.Row.window;
  Bin.w_i64 b (Interval.lo row.Row.interval);
  Bin.w_i64 b (Interval.hi row.Row.interval);
  Bin.w_string b row.Row.key;
  Bin.w_float b row.Row.value

let r_row r =
  let window = r_window r in
  let lo = Bin.r_i64 r in
  let hi = Bin.r_i64 r in
  let key = Bin.r_string r in
  let value = Bin.r_float r in
  let interval =
    try Interval.make ~lo ~hi
    with Invalid_argument m -> Bin.corrupt "invalid interval in snapshot: %s" m
  in
  { Row.window; interval; key; value }

(* --- executor export ----------------------------------------------- *)

let w_node b = function
  | Stream_exec.X_stateless -> Bin.w_u8 b 0
  | Stream_exec.X_win { x_pending; x_wm } ->
      Bin.w_u8 b 1;
      Bin.w_list b
        (fun b (hi, lo, key, state, items) ->
          Bin.w_i64 b hi;
          Bin.w_i64 b lo;
          Bin.w_string b key;
          Bincodec.w_state b state;
          Bin.w_i64 b items)
        x_pending;
      Bin.w_i64 b x_wm
  | Stream_exec.X_pane { x_cur_pane; x_p_wm; x_open_pane; x_queues } ->
      Bin.w_u8 b 2;
      Bin.w_i64 b x_cur_pane;
      Bin.w_i64 b x_p_wm;
      w_pane b x_open_pane;
      Bin.w_list b
        (fun b (k, q) ->
          Bin.w_string b k;
          Bincodec.w_swag b q)
        x_queues
  | Stream_exec.X_cwin { xc_keys } ->
      Bin.w_u8 b 3;
      Bin.w_list b
        (fun b (key, seen, pend) ->
          Bin.w_string b key;
          Bin.w_i64 b seen;
          Bin.w_list b
            (fun b (hi, state, items) ->
              Bin.w_i64 b hi;
              Bincodec.w_state b state;
              Bin.w_i64 b items)
            pend)
        xc_keys
  | Stream_exec.X_session { xs_open; xs_pending; xs_wm } ->
      Bin.w_u8 b 4;
      Bin.w_list b
        (fun b (key, first, last, state, items) ->
          Bin.w_string b key;
          Bin.w_i64 b first;
          Bin.w_i64 b last;
          Bincodec.w_state b state;
          Bin.w_i64 b items)
        xs_open;
      Bin.w_list b
        (fun b (hi, lo, key, state, items) ->
          Bin.w_i64 b hi;
          Bin.w_i64 b lo;
          Bin.w_string b key;
          Bincodec.w_state b state;
          Bin.w_i64 b items)
        xs_pending;
      Bin.w_i64 b xs_wm

let r_node r =
  match Bin.r_u8 r with
  | 0 -> Stream_exec.X_stateless
  | 1 ->
      let x_pending =
        Bin.r_list r (fun r ->
            let hi = Bin.r_i64 r in
            let lo = Bin.r_i64 r in
            let key = Bin.r_string r in
            let state = Bincodec.r_state r in
            let items = Bin.r_i64 r in
            (hi, lo, key, state, items))
      in
      let x_wm = Bin.r_i64 r in
      Stream_exec.X_win { x_pending; x_wm }
  | 2 ->
      let x_cur_pane = Bin.r_i64 r in
      let x_p_wm = Bin.r_i64 r in
      let x_open_pane = r_pane r in
      let x_queues =
        Bin.r_list r (fun r ->
            let k = Bin.r_string r in
            let q = Bincodec.r_swag r in
            (k, q))
      in
      Stream_exec.X_pane { x_cur_pane; x_p_wm; x_open_pane; x_queues }
  | 3 ->
      let xc_keys =
        Bin.r_list r (fun r ->
            let key = Bin.r_string r in
            let seen = Bin.r_i64 r in
            let pend =
              Bin.r_list r (fun r ->
                  let hi = Bin.r_i64 r in
                  let state = Bincodec.r_state r in
                  let items = Bin.r_i64 r in
                  (hi, state, items))
            in
            (key, seen, pend))
      in
      Stream_exec.X_cwin { xc_keys }
  | 4 ->
      let xs_open =
        Bin.r_list r (fun r ->
            let key = Bin.r_string r in
            let first = Bin.r_i64 r in
            let last = Bin.r_i64 r in
            let state = Bincodec.r_state r in
            let items = Bin.r_i64 r in
            (key, first, last, state, items))
      in
      let xs_pending =
        Bin.r_list r (fun r ->
            let hi = Bin.r_i64 r in
            let lo = Bin.r_i64 r in
            let key = Bin.r_string r in
            let state = Bincodec.r_state r in
            let items = Bin.r_i64 r in
            (hi, lo, key, state, items))
      in
      let xs_wm = Bin.r_i64 r in
      Stream_exec.X_session { xs_open; xs_pending; xs_wm }
  | tag -> Bin.corrupt "unknown node state tag %d" tag

let mode_byte = function
  | Stream_exec.Naive -> 0
  | Stream_exec.Incremental -> 1

let mode_of_byte = function
  | 0 -> Stream_exec.Naive
  | 1 -> Stream_exec.Incremental
  | n -> Bin.corrupt "unknown execution mode byte %d" n

let mode_name = function
  | Stream_exec.Naive -> "naive"
  | Stream_exec.Incremental -> "incremental"

(* --- snapshot payload ---------------------------------------------- *)

(* The snapshot deliberately does NOT contain the emitted rows: the
   checkpoint runtime streams those to an append-only row log as they
   are produced, and the snapshot just records how many of them it
   covers ([s_rows_persisted]).  Serializing the full output on every
   snapshot would make checkpoint cost grow with everything ever
   emitted; this keeps it proportional to live operator state. *)
type snapshot = {
  s_export : Stream_exec.export;  (* x_rows is always [] here *)
  s_rows_persisted : int;
  s_ingested : int;
  s_processed : (Window.t * int) list;
}

let w_snapshot b s =
  Bin.w_u8 b (mode_byte s.s_export.Stream_exec.x_mode);
  Bin.w_i64 b s.s_export.Stream_exec.x_source_wm;
  Bin.w_i64 b s.s_rows_persisted;
  Bin.w_i64 b s.s_ingested;
  Bin.w_list b
    (fun b (w, n) ->
      w_window b w;
      Bin.w_i64 b n)
    s.s_processed;
  Bin.w_list b w_node (Array.to_list s.s_export.Stream_exec.x_nodes)

let r_snapshot r =
  let x_mode = mode_of_byte (Bin.r_u8 r) in
  let x_source_wm = Bin.r_i64 r in
  let s_rows_persisted = Bin.r_i64 r in
  if s_rows_persisted < 0 then Bin.corrupt "negative persisted-row count";
  let s_ingested = Bin.r_i64 r in
  let s_processed =
    Bin.r_list r (fun r ->
        let w = r_window r in
        let n = Bin.r_i64 r in
        (w, n))
  in
  let x_nodes = Array.of_list (Bin.r_list r r_node) in
  {
    s_export = { Stream_exec.x_mode; x_source_wm; x_rows = []; x_nodes };
    s_rows_persisted;
    s_ingested;
    s_processed;
  }

(* --- plan fingerprint ---------------------------------------------- *)

(* FNV-1a over the plan's structural rendering (operators, windows,
   predicate, aggregate — everything {!Plan.pp} prints) plus the
   execution mode.  Stable across processes and OCaml versions, unlike
   [Hashtbl.hash] on the plan value itself. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let plan_fingerprint plan mode =
  fnv1a64
    (Format.asprintf "%s|%s|%a" (mode_name mode)
       (Aggregate.to_string (Plan.agg plan))
       Plan.pp plan)

(* --- snapshot frame ------------------------------------------------ *)

let header_len = String.length magic + 2 + 8 + 8

(* Every payload opens with a kind byte, so an engine snapshot can
   never be decoded as a reorder snapshot (or vice versa) even when the
   plan fingerprints agree. *)
let kind_engine = 0
let kind_reorder = 1

let kind_name = function
  | 0 -> "engine"
  | 1 -> "reorder"
  | _ -> "unknown"

let encode_frame ~fingerprint payload =
  let b = Buffer.create (header_len + String.length payload + 4) in
  Buffer.add_string b magic;
  Bin.w_u16 b version;
  Bin.w_raw64 b fingerprint;
  Bin.w_i64 b (String.length payload);
  Buffer.add_string b payload;
  Bin.w_u32 b (crc32 payload);
  Buffer.contents b

let decode_frame ~plan ~mode ~kind decode s =
  try
    let r = Bin.reader s in
    Bin.need r header_len "snapshot header";
    let m = String.sub s 0 (String.length magic) in
    if m <> magic then
      Bin.corrupt "bad magic %S (not a factor-windows snapshot)" m;
    r.Bin.pos <- String.length magic;
    let v = Bin.r_u16 r in
    if v <> version then
      Bin.corrupt
        "unsupported snapshot version %d (this build reads version %d); \
         refusing to resume"
        v version;
    let fp = Bin.r_raw64 r in
    let expected = plan_fingerprint plan mode in
    if not (Int64.equal fp expected) then
      Bin.corrupt
        "plan fingerprint mismatch (snapshot 0x%Lx, current %s-mode plan \
         0x%Lx); refusing to resume on a different plan"
        fp (mode_name mode) expected;
    let payload_len = Bin.r_i64 r in
    if payload_len < 0 || Bin.remaining r <> payload_len + 4 then
      Bin.corrupt "truncated snapshot (payload length %d, %d bytes present)"
        payload_len (Bin.remaining r);
    let payload_pos = r.Bin.pos in
    r.Bin.pos <- r.Bin.pos + payload_len;
    let crc = Bin.r_u32 r in
    let actual = Bin.crc32_sub s payload_pos payload_len in
    if crc <> actual then
      Bin.corrupt "payload CRC mismatch (stored %08x, computed %08x): torn or \
               corrupted write"
        crc actual;
    let pr = Bin.reader ~pos:payload_pos ~limit:(payload_pos + payload_len) s in
    let k = Bin.r_u8 pr in
    if k <> kind then
      Bin.corrupt "payload holds a %s snapshot where a %s snapshot was expected"
        (kind_name k) (kind_name kind);
    let value = decode pr in
    if Bin.remaining pr <> 0 then
      Bin.corrupt "trailing bytes after snapshot payload (%d)"
        (Bin.remaining pr);
    Ok value
  with
  | Corrupt m -> Error m
  | Invalid_argument m -> Error ("invalid state in snapshot: " ^ m)

let encode_snapshot ~plan s =
  let payload = Buffer.create 4096 in
  Bin.w_u8 payload kind_engine;
  w_snapshot payload s;
  encode_frame
    ~fingerprint:(plan_fingerprint plan s.s_export.Stream_exec.x_mode)
    (Buffer.contents payload)

let decode_snapshot ~plan ~mode s =
  decode_frame ~plan ~mode ~kind:kind_engine r_snapshot s

(* --- framed append-only logs --------------------------------------- *)

(* Both on-disk logs (the event WAL and the emitted-row log) share one
   record framing: [len u32][payload][crc32(payload) u32], flushed in
   whole records.  [decode_frames] scans an image and stops cleanly at
   the first torn or Bin.corrupt record: a crash can leave a partial record
   at the tail, and everything before it is still good. *)

let frame = Bin.frame
let decode_frames = Bin.decode_frames

(* --- write-ahead log ----------------------------------------------- *)

type wal_record = Wal_event of Event.t | Wal_advance of int

let encode_wal_record rec_ =
  let payload = Buffer.create 32 in
  (match rec_ with
  | Wal_event e ->
      Bin.w_u8 payload 1;
      Bin.w_i64 payload e.Event.time;
      Bin.w_string payload e.Event.key;
      Bin.w_float payload e.Event.value
  | Wal_advance t ->
      Bin.w_u8 payload 2;
      Bin.w_i64 payload t);
  frame (Buffer.contents payload)

let decode_wal_record r =
  match Bin.r_u8 r with
  | 1 ->
      let time = Bin.r_i64 r in
      let key = Bin.r_string r in
      let value = Bin.r_float r in
      if time < 0 then Bin.corrupt "negative event time in log";
      Wal_event (Event.make ~time ~key ~value)
  | 2 -> Wal_advance (Bin.r_i64 r)
  | tag -> Bin.corrupt "unknown log record tag %d" tag

let decode_wal s = decode_frames decode_wal_record s

(* --- emitted-row log ----------------------------------------------- *)

let encode_row_record row =
  let payload = Buffer.create 48 in
  w_row payload row;
  frame (Buffer.contents payload)

let decode_rows s = decode_frames r_row s

(* --- reorder snapshots --------------------------------------------- *)

(* A reorder snapshot is self-contained: unlike the engine snapshot it
   carries the wrapped executor's emitted rows inline, because the
   reorder codec path has no companion row log — it captures the whole
   pipeline (buffer + executor) in one blob. *)

module Reorder = Fw_engine.Reorder

let w_event b (e : Event.t) =
  Bin.w_i64 b e.Event.time;
  Bin.w_string b e.Event.key;
  Bin.w_float b e.Event.value

let r_event r =
  let time = Bin.r_i64 r in
  let key = Bin.r_string r in
  let value = Bin.r_float r in
  if time < 0 then Bin.corrupt "negative event time in snapshot";
  Event.make ~time ~key ~value

let w_reorder b (x : Reorder.export) =
  Bin.w_i64 b x.Reorder.x_lateness;
  Bin.w_list b (fun b g -> Bin.w_list b w_event g) x.Reorder.x_groups;
  Bin.w_i64 b x.Reorder.x_peak;
  Bin.w_i64 b x.Reorder.x_released;
  Bin.w_i64 b x.Reorder.x_dropped;
  Bin.w_i64 b x.Reorder.x_frontier;
  Bin.w_i64 b x.Reorder.x_max_seen;
  let e = x.Reorder.x_exec in
  Bin.w_u8 b (mode_byte e.Stream_exec.x_mode);
  Bin.w_i64 b e.Stream_exec.x_source_wm;
  Bin.w_list b w_row e.Stream_exec.x_rows;
  Bin.w_list b w_node (Array.to_list e.Stream_exec.x_nodes)

let r_reorder r =
  let x_lateness = Bin.r_i64 r in
  if x_lateness < 0 then Bin.corrupt "negative lateness in snapshot";
  let x_groups = Bin.r_list r (fun r -> Bin.r_list r r_event) in
  let x_peak = Bin.r_i64 r in
  let x_released = Bin.r_i64 r in
  let x_dropped = Bin.r_i64 r in
  if x_peak < 0 || x_released < 0 || x_dropped < 0 then
    Bin.corrupt "negative reorder statistic in snapshot";
  let x_frontier = Bin.r_i64 r in
  let x_max_seen = Bin.r_i64 r in
  let x_mode = mode_of_byte (Bin.r_u8 r) in
  let x_source_wm = Bin.r_i64 r in
  let x_rows = Bin.r_list r r_row in
  let x_nodes = Array.of_list (Bin.r_list r r_node) in
  {
    Reorder.x_lateness;
    x_groups;
    x_peak;
    x_released;
    x_dropped;
    x_frontier;
    x_max_seen;
    x_exec = { Stream_exec.x_mode; x_source_wm; x_rows; x_nodes };
  }

let encode_reorder ~plan (x : Reorder.export) =
  let payload = Buffer.create 4096 in
  Bin.w_u8 payload kind_reorder;
  w_reorder payload x;
  encode_frame
    ~fingerprint:(plan_fingerprint plan x.Reorder.x_exec.Stream_exec.x_mode)
    (Buffer.contents payload)

let decode_reorder ~plan ~mode s =
  decode_frame ~plan ~mode ~kind:kind_reorder r_reorder s
