(** Pending window instances of one key, in a mutable ring.

    The per-instance operator's per-key state: the instances [m] that
    have folded at least one item and not yet fired, each with its
    sub-aggregate state and the number of items folded into it.  An
    item folds into a contiguous instance range, ranges arrive in
    ascending order, and instances fire oldest first, so births happen
    at the back and firing pops the front — the in-order access pattern
    of the array-backed sliding-window structures (Tangwongsan, Hirzel
    & Schneider, "In-Order Sliding-Window Aggregation in Worst-Case
    Constant Time").

    The ring holds only live instances, each slot with its instance
    number, in ascending order.  A fold whose range extends the back
    block is O(range) and allocates nothing per instance beyond its new
    state; a key idle between two clusters costs nothing for the gap.
    Any other range (one below the front, or one that fills a gap) is
    still exact, by a merge that rebuilds the ring.  Capacity is a power
    of two; it doubles to fit and halves once a pop leaves it at most a
    quarter full, so memory follows the live instance count, not the
    history.

    Instance [m] of a window of range [r] and slide [s] has upper bound
    [hi = m·s + r]; the codec speaks [hi], the fold speaks [m]. *)

type t

val create : nil:Fw_agg.Combine.state -> t
(** An empty ring.  [nil] fills empty slots, so that a fired state is
    not kept alive by the ring. *)

val is_empty : t -> bool

val fold_value :
  t ->
  first:int ->
  last:int ->
  Fw_agg.Aggregate.t ->
  float ->
  born:(int -> unit) ->
  unit
(** [fold_value t ~first ~last agg v ~born] folds raw value [v] into
    every instance [first .. last] (none when [first > last]):
    [Combine.of_value agg v] for an instance it creates, calling
    [born m] first, [Combine.add] for a live one. *)

val fold_state :
  t -> first:int -> last:int -> Fw_agg.Combine.state -> born:(int -> unit) -> unit
(** The same with a sub-aggregate: the state itself for a new instance,
    [Combine.merge] for a live one. *)

val front : t -> int
(** The oldest live instance.  Raises [Invalid_argument] when empty. *)

val pop : t -> Fw_agg.Combine.state * int
(** Remove the oldest live instance; its state and item count.  Raises
    [Invalid_argument] when empty. *)

val iter : (int -> Fw_agg.Combine.state -> int -> unit) -> t -> unit
(** [f m state items] for every live instance, in ascending [m]. *)

(** {2 Store codec}

    The payload of the operator's spill records and engine images:
    [count i64] then, per live instance in ascending order,
    [hi i64 | state | items i64]. *)

val write : Buffer.t -> range:int -> slide:int -> t -> unit

val read :
  nil:Fw_agg.Combine.state -> range:int -> slide:int -> Fw_spill.Bin.reader -> t
(** Raises {!Fw_spill.Bin.Corrupt} on a malformed list: a [hi] off the
    instance grid ([hi - range] negative or not a multiple of [slide]),
    a [hi] not strictly above its predecessor, or an item count below
    1. *)

val weight : t -> int
(** Resident-size estimate: [48 + Σ (64 + state weight)] over the live
    instances.  Drives eviction accounting only. *)
