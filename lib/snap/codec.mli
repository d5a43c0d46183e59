(** Versioned binary codec for snapshots and the write-ahead log.

    Dependency-free: fixed little-endian integers, IEEE float bit
    patterns (decoded states are bit-identical to the encoded ones) and
    length-prefixed strings over [Buffer]/[String].  A snapshot frame
    carries a magic, a format {!version}, a {!plan_fingerprint} and a
    CRC-32 over the payload; {!decode_snapshot} fails closed — unknown
    version, foreign plan, truncation and bit rot each yield a
    descriptive [Error], never a garbage executor. *)

exception Corrupt of string
(** Raised by low-level decoders on malformed input.  The snapshot and
    log entry points catch it; it only escapes the [state_of_string]
    test helper. *)

val version : int
(** Current snapshot format version (encoded as a u16). *)

val plan_fingerprint :
  Fw_plan.Plan.t -> Fw_engine.Stream_exec.mode -> int64
(** FNV-1a 64-bit hash of the plan's structural rendering plus the
    execution mode.  Stable across processes (unlike [Hashtbl.hash]);
    two (plan, mode) pairs with different operators, windows, predicate,
    aggregate or mode fingerprint differently. *)

(** {2 Snapshots} *)

type snapshot = {
  s_image : string;
      (** the executor's {!Fw_engine.Stream_exec.export} image; it holds
          no rows — emitted rows live in the row log, not the snapshot,
          so checkpoint cost is proportional to live operator state
          rather than to all output ever produced *)
  s_rows_persisted : int;
      (** emitted rows covered by this snapshot: the row-log prefix
          that was durable when it was taken *)
  s_ingested : int;  (** {!Fw_engine.Metrics.ingested} at capture *)
  s_processed : (Fw_window.Window.t * int) list;
      (** per-window processed-item counters at capture, so cost-model
          accounting survives a restart exactly *)
}

type writer
(** A pipeline's snapshot writer: the plan fingerprint, computed once,
    and the small buffers it reuses across snapshots. *)

val writer : plan:Fw_plan.Plan.t -> mode:Fw_engine.Stream_exec.mode -> writer

val output_snapshot :
  writer ->
  out_channel ->
  rows_persisted:int ->
  ingested:int ->
  processed:(Fw_window.Window.t * int) list ->
  Buffer.t ->
  int
(** Write a snapshot frame whose engine image is the buffer's contents
    (an {!Fw_engine.Stream_exec.export_into} image taken in the
    writer's mode): the header, the payload's counters, the image
    straight from the buffer and the CRC, carried across the parts with
    {!Fw_spill.Bin.crc32_update}.  Returns the bytes written.  The
    fields are {!snapshot}'s, and the bytes are those of
    {!encode_snapshot}. *)

val encode_snapshot : plan:Fw_plan.Plan.t -> snapshot -> string
(** The frame {!output_snapshot} writes, as a string, fingerprinted for
    the mode the image was taken in.  Raises [Invalid_argument] when
    the image's mode byte is unknown. *)

val decode_snapshot :
  plan:Fw_plan.Plan.t ->
  mode:Fw_engine.Stream_exec.mode ->
  string ->
  (snapshot, string) result
(** Verifies magic, version, fingerprint of [(plan, mode)], length and
    CRC before touching the payload, and that the image was taken in
    [mode].  The image's contents are checked when
    {!Fw_engine.Stream_exec.import} restores it ({!Recover.load} falls
    back past a snapshot whose image does not restore). *)

(** {2 Write-ahead log}

    One record per input action.  Each record is independently framed
    ([length | payload | crc32]) so {!decode_wal} can stop cleanly at a
    torn tail — everything before the first bad frame is valid. *)

type wal_record =
  | Wal_event of Fw_engine.Event.t
  | Wal_advance of int  (** an explicit punctuation *)

val add_event :
  Fw_spill.Bin.frames -> time:int -> key:string -> value:float -> unit
(** Frame the [Wal_event] record of one event ({!Fw_spill.Bin.add_frame}),
    encoded once from its fields — no {!Fw_engine.Event.t} is built. *)

val add_advance : Fw_spill.Bin.frames -> int -> unit
(** Frame a [Wal_advance] record. *)

val decode_wal : string -> wal_record list
(** Decode a log image, silently discarding the torn/corrupt tail. *)

(** {2 Emitted-row log}

    Result rows are streamed to an append-only side log as the engine
    emits them (same per-record framing as the WAL); the snapshot only
    records how many are covered.  The log is flushed at checkpoint
    time, just before the snapshot rename, so a valid snapshot's count
    never exceeds the decodable prefix of the log. *)

val add_row : Fw_spill.Bin.frames -> Fw_engine.Row.t -> unit
(** Frame one row-log record. *)

val decode_rows : string -> Fw_engine.Row.t list
(** Decode a row-log image, silently discarding the torn/corrupt
    tail. *)

(** {2 Test helpers} *)

val state_to_string : Fw_agg.Combine.state -> string
(** Unframed encoding of a single aggregate state (no CRC), for
    round-trip and corrupt-byte property tests. *)

val state_of_string : string -> Fw_agg.Combine.state
(** Raises {!Corrupt} on malformed input (including trailing bytes). *)
