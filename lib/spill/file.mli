(** Append-only spill file: where evicted store entries live.

    Records share the WAL framing ([len u32 | payload | crc32 u32]);
    every payload opens with {!Bin.spill_kind}, a state-kind tag and
    the entry's key, so fault-in verifies integrity {e and} identity
    before any bytes reach a decoder.  Spill files are scratch —
    checkpoints re-absorb spilled entries, recovery never reads one —
    so there is no fsync; what is guaranteed is that a corrupt or torn
    record surfaces as {!Fault} with a reason, never as garbage
    state.

    Writes are gathered: one [write] per 8 KiB of evictions.  Each file
    keeps one append tail of 8 KiB; records are framed into it and it
    goes to disk whole when the next record does not fit.  A record
    lives wholly in the tail or wholly on disk, and reads of tail
    records are served from memory.  A failed tail write leaves the
    tail intact and readable, and the next append retries it, so no
    appended record is ever lost to a failed write.  Compaction writes
    a source's tail out before copying from it, {!truncate} drops the
    tail, {!close} writes it out and {!remove} does not.

    Every transfer is positioned: one [pread] per record read from disk
    and one [pwrite] per tail, oversized record or compaction chunk,
    with no seek and no bounce buffer.  A read that reaches the end of
    the file early raises {!Fault} ["truncated spill file ..."]. *)

exception Fault of string
(** A spill-file read that cannot be trusted: truncation, CRC mismatch,
    wrong payload kind, or a key mismatch.  The message says which. *)

type t

val create : ?writes:Fw_obs.Counter.t -> string -> t
(** [create path] opens (and truncates) the file at [path].  Every
    completed [write] to it (a tail, a record larger than the tail, a
    compaction chunk) ticks [writes] when given. *)

val path : t -> string

val size : t -> int
(** Total bytes appended (the append position), the pending tail
    included. *)

val live_bytes : t -> int
(** Bytes of records still referenced by the store; [size - live_bytes]
    is the garbage ratio's numerator, driving compaction. *)

val garbage_bytes : t -> int

val start_payload : Buffer.t -> kind:int -> key:string -> unit
(** [start_payload b ~kind ~key] clears [b] and writes the head of a
    record payload into it: {!Bin.spill_kind}, the state-kind tag and
    the key.  The caller then appends the value bytes (a store codec
    encodes straight into [b]). *)

val append_payload : t -> Buffer.t -> int * int
(** Frame the payload in the buffer ([len | payload | crc32], through
    {!Bin.frame_into}) straight into the file's append tail; returns the
    record's [(offset, length)] for the in-memory index.  That framing
    copy is the only one between codec and disk, and the tail reaches
    the disk in one [write] per 8 KiB of records: only when the next
    record does not fit.  A record larger than the tail writes the
    pending tail out, then goes to disk in a [write] of its own.  If a
    write raises ([Unix.Unix_error]), nothing is appended and every
    earlier record stays readable. *)

val append : t -> kind:int -> key:string -> string -> int * int
(** [append t ~kind ~key value]: {!start_payload} then
    {!append_payload} over a fresh buffer holding [value]. *)

val read_record : t -> off:int -> len:int -> key:string -> int * Bin.reader
(** [read_record t ~off ~len ~key] verifies the record at [off] in
    place in the tail, or reads it from disk into the file's scratch
    buffer and verifies it there: its frame, CRC, spill kind and that
    it holds [key].  Returns its state-kind tag and a reader bounded to
    the value bytes, valid until the next append or read on [t].
    Raises {!Fault} otherwise. *)

val read : t -> off:int -> len:int -> key:string -> int * string
(** {!read_record}, with the value bytes copied out. *)

val release : t -> int -> unit
(** Mark [len] record bytes as garbage (entry faulted in or removed). *)

(** {2 Compaction copy}

    A copier streams verified records from one spill file into
    another: the source writes out its tail, then is read in file order
    a chunk at a time (one [pread] per chunk), each record is checked in
    place as {!read_record} does, and its raw bytes gather in an output
    chunk written whole.
    Its two chunk buffers (8 KiB each) are allocated at the
    first {!copy_start} and reused after. *)

type copier

val copier : unit -> copier

val copy_start : copier -> unit
(** Begin a pass: forget the previous source window and output. *)

val copy : copier -> src:t -> dst:t -> off:int -> len:int -> key:string -> int
(** Copy the record at [off] (length [len]) of [src] into [dst]
    unchanged and return its offset there; offsets must ascend across
    the calls of one pass.  Raises {!Fault} as {!read_record} does.
    The record reaches [dst] at the next {!flush} at the latest. *)

val flush : copier -> t -> unit
(** Write the gathered output to the destination; ends a pass. *)

val truncate : t -> unit
(** Drop every record, the pending tail included (e.g. after
    compaction or {!Store.clear}). *)

val close : t -> unit
(** Write the pending tail out (a failure is ignored: the file is
    scratch) and close the file. *)

val remove : t -> unit
(** [remove] closes and deletes the file without writing its pending
    tail; spill files never outlive their store. *)

(** {2 Offline scan} *)

type scan = {
  records : (int * int * string * string) list;
      (** (offset, state-kind, key, value bytes) of every intact
          record *)
  skipped : (int * string) list;
      (** (offset, reason) for every record the scan skipped — corrupt
          bytes or a truncated tail surface here instead of crashing *)
}

val scan : string -> scan
(** Scan a spill file on disk, skipping corrupt records (with reasons)
    as long as the framing remains plausible; a mangled length prefix
    ends the scan with its reason in [skipped]. *)

val scan_image : string -> scan
(** Same, over an in-memory image. *)
