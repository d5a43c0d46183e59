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
    block is O(range) and allocates nothing; a key idle between two
    clusters costs nothing for the gap.  Any other range (one below the
    front, or one that fills a gap) is still exact, by a merge that
    rebuilds the ring.  Capacity is a power of two; it doubles to fit
    and halves once a pop leaves it at most a quarter full, so memory
    follows the live instance count, not the history.

    The states live in unboxed accumulator columns
    ({!Fw_agg.Combine.Cols}: one float array for a SUM ring, say), the
    in-order array layout of the paper above carried down into the
    state itself.  A fold writes numbers in place: it neither allocates
    a state nor stores a pointer into the long-lived ring, so the
    garbage collector has no write barrier to take and no pending state
    to promote (a holistic MEDIAN ring, whose state is its value list,
    is the one exception).  A {!Fw_agg.Combine.state} is built only when
    an instance is iterated: a sub-aggregate folds in from a slot of
    its run's columns, a popped instance is copied into one, and the
    codec and {!weight} read the columns directly.  The columns compute bit for bit what the state
    functions do, so rows, records and images are unchanged by the
    layout.

    Instance [m] of a window of range [r] and slide [s] has upper bound
    [hi = m·s + r]; the codec speaks [hi], the fold speaks [m]. *)

type t

val create : Fw_agg.Aggregate.t -> t
(** An empty ring of the aggregate's states. *)

val is_empty : t -> bool

val fold_value :
  t -> first:int -> last:int -> float -> born:(int -> unit) -> unit
(** [fold_value t ~first ~last v ~born] folds raw value [v] into every
    instance [first .. last] (none when [first > last]):
    [Combine.of_value] for an instance it creates, calling [born m]
    first, [Combine.add] for a live one. *)

val fold_slot :
  t ->
  first:int ->
  last:int ->
  Fw_agg.Combine.Cols.t ->
  int ->
  born:(int -> unit) ->
  unit
(** [fold_slot t ~first ~last src i ~born]: the same with a
    sub-aggregate, slot [i] of [src]: its state for a new instance,
    [Combine.merge] for a live one, with no state built.  Raises
    [Invalid_argument] when [src] holds another aggregate than the
    ring's. *)

val front : t -> int
(** The oldest live instance.  Raises [Invalid_argument] when empty. *)

val pop_into : t -> Fw_agg.Combine.Cols.t -> int -> int
(** [pop_into t dst i] removes the oldest live instance, copies its
    state into slot [i] of [dst] (no state built) and returns its item
    count.  Raises [Invalid_argument] when empty or when [dst] holds
    another aggregate than the ring's. *)

val iter : (int -> Fw_agg.Combine.state -> int -> unit) -> t -> unit
(** [f m state items] for every live instance, in ascending [m]. *)

(** {2 Store codec}

    The payload of the operator's spill records and engine images:
    [count i64] then, per live instance in ascending order,
    [hi i64 | state | items i64]. *)

val write : Buffer.t -> range:int -> slide:int -> t -> unit

val read :
  Fw_agg.Aggregate.t -> range:int -> slide:int -> Fw_spill.Bin.reader -> t
(** Raises {!Fw_spill.Bin.Corrupt} on a malformed list: a [hi] off the
    instance grid ([hi - range] negative or not a multiple of [slide]),
    a [hi] not strictly above its predecessor, an item count below 1,
    or a state of another aggregate. *)

val weight : t -> int
(** Resident-size estimate: [48 + Σ (64 + state weight)] over the live
    instances.  Drives eviction accounting only. *)
