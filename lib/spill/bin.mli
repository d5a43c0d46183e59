(** Binary reader/writer primitives shared by every byte format: the
    spill files and store codecs ({!Store}), the engine image and the
    snapshot codec ({!Fw_snap.Codec}), which all call them directly.

    Dependency-free: fixed little-endian integers, IEEE float bit
    patterns (decoded states are bit-identical to the encoded ones) and
    length-prefixed strings over [Buffer]/[String].  They sit {e below}
    the engine in the dependency graph, so the out-of-core state store
    can use them without a cycle. *)

exception Corrupt of string
(** Raised by readers on malformed input. *)

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)

(** {2 CRC-32} *)

val crc32 : string -> int
(** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of the whole string. *)

val crc32_sub : string -> int -> int -> int
(** [crc32_sub s pos len] over the substring (slice-by-8, bit-identical
    to the bytewise definition).  Raises [Invalid_argument] when
    [pos]/[len] do not name a substring of [s]. *)

val crc32_update : int -> string -> int -> int -> int
(** [crc32_update crc s pos len] carries [crc], the CRC-32 of some
    bytes [p], over the substring: it is the CRC-32 of [p] followed by
    [s.[pos..pos+len)].  [crc32_sub s pos len = crc32_update 0 s pos
    len], so a CRC can be computed across parts that never sit side by
    side in memory.  Raises [Invalid_argument] like {!crc32_sub}. *)

(** {2 Writers} *)

val w_u8 : Buffer.t -> int -> unit
val w_u16 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit
val w_i64 : Buffer.t -> int -> unit
val w_raw64 : Buffer.t -> int64 -> unit
val w_float : Buffer.t -> float -> unit
val w_string : Buffer.t -> string -> unit
val w_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit
val w_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** {2 Readers}

    A reader is a cursor over a string slice; every read bounds-checks
    and raises {!Corrupt} on truncation. *)

type reader = { src : string; mutable pos : int; limit : int }

val reader : ?pos:int -> ?limit:int -> string -> reader
val remaining : reader -> int
val need : reader -> int -> string -> unit
val r_u8 : reader -> int
val r_u16 : reader -> int
val r_u32 : reader -> int
val r_i64 : reader -> int
val r_raw64 : reader -> int64
val r_float : reader -> float
val r_bool : reader -> bool
val r_string : reader -> string
val r_list : reader -> (reader -> 'a) -> 'a list
val r_option : reader -> (reader -> 'a) -> 'a option

(** {2 Record framing}

    [len u32 | payload | crc32(payload) u32] — the framing shared by
    the WAL, the emitted-row log and the spill files, written by
    {!frame_into} alone. *)

val frame_into : Buffer.t -> Bytes.t -> int -> unit
(** [frame_into payload dst pos] writes the framed record at
    [dst.[pos..pos + Buffer.length payload + 8)]: one blit of the
    payload, its CRC computed over the copied bytes.  The caller
    guarantees the room. *)

type frames
(** A kept, growable scratch of whole frames, with a kept buffer for
    the payload being encoded: a log writer encodes each record once
    into {!payload}, frames it with {!add_frame}, and hands the run to
    its channel with one {!output_frames}. *)

val frames : unit -> frames

val payload : frames -> Buffer.t
(** The kept payload buffer, cleared. *)

val add_frame : frames -> Buffer.t -> unit
(** Append the framed payload ({!frame_into}), growing the scratch. *)

val frames_full : frames -> bool
(** At least 64 KiB pending: a writer that may frame many records
    before its next output calls {!output_frames} here, so the scratch
    stays bounded. *)

val frames_contents : frames -> string
(** The pending frames, copied out (the scratch is left as it is). *)

val output_frames : out_channel -> frames -> unit
(** Write the pending frames with one [output] and empty the scratch
    (its storage is kept). *)

val decode_frames : (reader -> 'a) -> string -> 'a list
(** Scan an image of concatenated frames; stops cleanly at the first
    torn or corrupt record (everything before it is returned). *)

val spill_kind : int
(** The payload kind byte ([0xF5]) that opens every spill record, so a
    spill blob can never be decoded as a snapshot, WAL or row-log
    payload. *)
