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

module Stream_exec = Fw_engine.Stream_exec
module Event = Fw_engine.Event
module Row = Fw_engine.Row
module Window = Fw_window.Window
module Interval = Fw_window.Interval
module Plan = Fw_plan.Plan
module Aggregate = Fw_agg.Aggregate

(* {!Fw_spill.Bin} holds the byte-level primitives, CRC and log
   framing; each per-key state family is encoded by its
   {!Fw_spill.Store.codec} alone, for spill records and engine images
   alike; {!Stream_exec.export} assembles the engine image.  This
   module adds only what lies above the engine: the snapshot frame
   (magic, version, plan fingerprint, CRC), the counters a snapshot
   carries next to the image, rows and the WAL. *)
module Bin = Fw_spill.Bin
module Bincodec = Fw_agg.Bincodec

exception Corrupt = Bin.Corrupt

(* v3: the engine state is the engine image ({!Stream_exec.export}):
   per node its scalar cells and each store's key-sorted image through
   the store's spill codec. *)
let version = 3
let magic = "FWSNAP"

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

let mode_name = function
  | Stream_exec.Naive -> "naive"
  | Stream_exec.Incremental -> "incremental"

let r_event r =
  let time = Bin.r_i64 r in
  let key = Bin.r_string r in
  let value = Bin.r_float r in
  if time < 0 then Bin.corrupt "negative event time";
  Event.make ~time ~key ~value

(* An engine image, refused when it was taken in another mode than the
   fingerprint vouches for.  Its contents are checked by
   {!Stream_exec.import}. *)
let r_image ~mode r =
  let image = Bin.r_string r in
  let m = Stream_exec.image_mode image in
  if m <> mode then
    Bin.corrupt "engine image taken in %s mode where %s was expected"
      (mode_name m) (mode_name mode);
  image

(* --- snapshot payload ---------------------------------------------- *)

(* The snapshot deliberately does NOT contain the emitted rows: the
   checkpoint runtime streams those to an append-only row log as they
   are produced, and the snapshot just records how many of them it
   covers ([s_rows_persisted]).  Serializing the full output on every
   snapshot would make checkpoint cost grow with everything ever
   emitted; this keeps it proportional to live operator state. *)
type snapshot = {
  s_image : string;
  s_rows_persisted : int;
  s_ingested : int;
  s_processed : (Window.t * int) list;
}

let r_snapshot ~mode r =
  let s_rows_persisted = Bin.r_i64 r in
  if s_rows_persisted < 0 then Bin.corrupt "negative persisted-row count";
  let s_ingested = Bin.r_i64 r in
  let s_processed =
    Bin.r_list r (fun r ->
        let w = r_window r in
        let n = Bin.r_i64 r in
        (w, n))
  in
  let s_image = r_image ~mode r in
  { s_image; s_rows_persisted; s_ingested; s_processed }

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

(* Every payload opens with a kind byte.  Engine snapshots are the
   only kind; any other byte fails closed. *)
let kind_engine = 0

(* The kept state of one pipeline's snapshot writer: its plan
   fingerprint, computed once, and buffers reused across snapshots.  A
   snapshot file is written in four parts — header, payload prefix (the
   counters and the image's length), image, CRC — and the CRC is
   carried across the prefix and the image without joining them. *)
type writer = {
  fingerprint : int64;
  head : Buffer.t;  (* header, then the CRC trailer *)
  prefix : Buffer.t;
  chunk : Bytes.t;  (* the image passes through here to be CRC'd *)
}

let writer ~plan ~mode =
  {
    fingerprint = plan_fingerprint plan mode;
    head = Buffer.create header_len;
    prefix = Buffer.create 256;
    chunk = Bytes.create 4096;
  }

let crc_buffer w crc b =
  let n = Buffer.length b and size = Bytes.length w.chunk in
  let rec go crc pos =
    if pos >= n then crc
    else
      let len = min size (n - pos) in
      Buffer.blit b pos w.chunk 0 len;
      go
        (Bin.crc32_update crc (Bytes.unsafe_to_string w.chunk) 0 len)
        (pos + len)
  in
  go crc 0

(* Hand the frame's parts to [emit] in file order — header, payload
   prefix, image, CRC — and return the bytes emitted.  The payload is
   the layout [r_snapshot] reads after the kind byte: the image is its
   last field, a length-prefixed string, so the prefix ends with the
   image's length. *)
let emit_snapshot w emit ~rows_persisted ~ingested ~processed image =
  let p = w.prefix and h = w.head in
  Buffer.clear p;
  Bin.w_u8 p kind_engine;
  Bin.w_i64 p rows_persisted;
  Bin.w_i64 p ingested;
  Bin.w_list p
    (fun b (win, n) ->
      w_window b win;
      Bin.w_i64 b n)
    processed;
  Bin.w_i64 p (Buffer.length image);
  Buffer.clear h;
  Buffer.add_string h magic;
  Bin.w_u16 h version;
  Bin.w_raw64 h w.fingerprint;
  Bin.w_i64 h (Buffer.length p + Buffer.length image);
  emit h;
  emit p;
  emit image;
  Buffer.clear h;
  Bin.w_u32 h (crc_buffer w (crc_buffer w 0 p) image);
  emit h;
  header_len + Buffer.length p + Buffer.length image + 4

let output_snapshot w oc = emit_snapshot w (Buffer.output_buffer oc)

let encode_snapshot ~plan s =
  let w = writer ~plan ~mode:(Stream_exec.image_mode s.s_image) in
  let image = Buffer.create (String.length s.s_image) in
  Buffer.add_string image s.s_image;
  let b = Buffer.create (String.length s.s_image + 256) in
  ignore
    (emit_snapshot w (Buffer.add_buffer b) ~rows_persisted:s.s_rows_persisted
       ~ingested:s.s_ingested ~processed:s.s_processed image);
  Buffer.contents b

let decode_frame ~plan ~mode decode s =
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
    if k <> kind_engine then
      Bin.corrupt "payload holds snapshot kind %d where an engine snapshot \
                   (kind %d) was expected"
        k kind_engine;
    let value = decode pr in
    if Bin.remaining pr <> 0 then
      Bin.corrupt "trailing bytes after snapshot payload (%d)"
        (Bin.remaining pr);
    Ok value
  with
  | Corrupt m -> Error m
  | Invalid_argument m -> Error ("invalid state in snapshot: " ^ m)

let decode_snapshot ~plan ~mode s =
  decode_frame ~plan ~mode (r_snapshot ~mode) s

(* --- write-ahead log ----------------------------------------------- *)

(* Both on-disk logs (the event WAL and the emitted-row log) frame each
   record with {!Bin.frame_into}, and {!Bin.decode_frames} stops
   cleanly at the first torn or corrupt record: a crash can leave a
   partial record at the tail, and everything before it is still
   good. *)

type wal_record = Wal_event of Event.t | Wal_advance of int

let add_event fr ~time ~key ~value =
  let b = Bin.payload fr in
  Bin.w_u8 b 1;
  Bin.w_i64 b time;
  Bin.w_string b key;
  Bin.w_float b value;
  Bin.add_frame fr b

let add_advance fr t =
  let b = Bin.payload fr in
  Bin.w_u8 b 2;
  Bin.w_i64 b t;
  Bin.add_frame fr b

let decode_wal_record r =
  match Bin.r_u8 r with
  | 1 -> Wal_event (r_event r)
  | 2 -> Wal_advance (Bin.r_i64 r)
  | tag -> Bin.corrupt "unknown log record tag %d" tag

let decode_wal s = Bin.decode_frames decode_wal_record s

(* --- emitted-row log ----------------------------------------------- *)

let add_row fr row =
  let b = Bin.payload fr in
  w_row b row;
  Bin.add_frame fr b

let decode_rows s = Bin.decode_frames r_row s
