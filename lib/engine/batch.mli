(** Columnar event batch: the unit of vectorized execution.

    A batch holds a run of time-ordered events as three parallel
    columns (times, keys, values) over {!Fw_util.Vec} buffers, plus a
    sparse list of {e punctuation marks} interleaved at event
    positions: a mark [(at, wm)] asserts watermark [wm] between event
    [at - 1] and event [at].  Carrying punctuation inside the batch is
    what lets {!Stream_exec.feed_batch} amortize node dispatch across
    a whole batch without weakening watermark semantics — the engine
    splits the batch into segments at the marks and fires pending
    instances at exactly the per-event points.

    Batches are mutable accumulators meant for recycling: the per-event
    [feed] wrapper reuses a single one-slot scratch batch.  {!reset}
    keeps the column storage.

    The columns must be pushed in event-time order ({!is_time_ordered}
    checks); {!Stream_exec.feed_batch} validates against its watermark
    before touching any state, so a late event in a batch is rejected
    atomically. *)

type t

(** One position of the interleaved event/punctuation sequence. *)
type slot = Ev of Event.t | Punct of int

val create : unit -> t

val push : t -> Event.t -> unit
(** Append one event to the columns. *)

val push_punct : t -> int -> unit
(** Append a punctuation mark at the current end of the columns: it
    fires after every event pushed so far and before any pushed later.
    Consecutive marks at one position coalesce to the largest
    watermark (watermarks are monotone, so only that one is
    observable). *)

val length : t -> int
(** Number of events (marks not counted). *)

val mark_count : t -> int
val is_empty : t -> bool
(** No events {e and} no marks. *)

val reset : t -> unit
(** Empty the batch, keeping column storage for refill. *)

val time : t -> int -> int
val key : t -> int -> string
val value : t -> int -> float
val event : t -> int -> Event.t

val mark : t -> int -> int * int
(** [mark b j] is the [j]-th punctuation as [(at, wm)]: watermark [wm]
    fires before event [at]. *)

val times : t -> int array
(** Backing column array; only indices [0 .. length - 1] are
    meaningful (see {!Fw_util.Vec.unsafe_data}). *)

val keys : t -> string array
val values : t -> float array

val of_events : Event.t list -> t
(** Events only, no punctuation. *)

val of_slots : slot list -> t
(** Build from an interleaved event/punctuation sequence. *)

val to_slots : t -> slot list
(** The interleaved sequence back, marks in position order. *)

val iter_slots : (slot -> unit) -> t -> unit
(** Visit events and punctuation in interleaved order — the per-event
    semantics a batched consumer must be equivalent to. *)

val is_time_ordered : t -> bool
(** Event times are non-decreasing along the columns. *)
