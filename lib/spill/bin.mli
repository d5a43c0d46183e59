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
    the WAL, the emitted-row log and the spill files. *)

val frame : string -> string

val decode_frames : (reader -> 'a) -> string -> 'a list
(** Scan an image of concatenated frames; stops cleanly at the first
    torn or corrupt record (everything before it is returned). *)

val spill_kind : int
(** The payload kind byte ([0xF5]) that opens every spill record, so a
    spill blob can never be decoded as a snapshot, WAL or row-log
    payload. *)
