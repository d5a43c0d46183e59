(** A per-key pane buffer: the unit of pre-aggregation shared by the
    incremental streaming engine and the executable window slicing.

    One pane covers one slide-aligned (or slice-aligned) span of the
    stream and accumulates a {!Combine.state} per key, kept as a
    one-slot accumulator column ({!Combine.Cols}) that {!add},
    {!add_run} and {!merge} update in place through
    {!Fw_spill.Store.access}: no state is built per event.  Raw events
    fold in with {!add} in O(1); sealed panes are drained with {!take} and
    {!iter} into per-key sliding queues ({!Swag}) or per-slice partial arrays
    ({!Fw_slicing.Exec}).  A pane only holds entries for keys that
    actually appeared, so empty keys cost nothing. *)

type t

val create : ?pool:Fw_spill.Pool.t -> Aggregate.t -> t
(** Without [pool], per-key states live in a plain hashtable (exact
    historical semantics).  With [pool], they live in a budgeted
    {!Fw_spill.Store}: cold keys may be evicted to disk and fault back
    in bit-identical on access — results are unaffected. *)

val aggregate : t -> Aggregate.t

val add : t -> key:string -> float -> unit
(** Fold one raw value into the key's state ([of_value] on first
    sight, [Combine.add] afterwards). *)

val add_run : t -> keys:string array -> values:float array ->
  sel:int array -> lo:int -> hi:int -> unit
(** Batched {!add}: fold events [sel.(lo .. hi-1)] of the parallel
    [keys]/[values] columns, in selection order.  Exactly equivalent to
    the per-event loop — same fold order, same final lifetime counter
    ([adds] grows by [hi - lo]) — with the per-call overhead amortized
    across the run.  The columnar hot path of
    {!Fw_engine.Stream_exec}'s [feed_batch]. *)

val merge : t -> key:string -> Combine.state -> unit
(** Fold a whole sub-aggregate state into the key's slot (used when a
    pane accumulates upstream sub-aggregates rather than raw values).
    Raises [Invalid_argument], leaving the pane as it was, when the
    state comes from another aggregate than the pane's. *)

val take : t -> string -> Combine.state option
(** The key's state, now gone from the pane ([None] when absent): a
    store {!Fw_spill.Store.find}, then {!Fw_spill.Store.remove}.  The
    pane roll of {!Fw_engine.Stream_exec} seals a key's open-pane state
    this way while it visits the key's queue. *)

val iter : (string -> Combine.state -> unit) -> t -> unit
val fold : (string -> Combine.state -> 'a -> 'a) -> t -> 'a -> 'a
val size : t -> int
val is_empty : t -> bool

val clear : t -> unit
(** Empty the pane for reuse (the engine recycles one open pane). *)

val release : t -> unit
(** Empty the pane for good: see {!Fw_spill.Store.release}. *)

(** {2 Introspection}

    Cumulative lifetime counters (they survive {!clear}) for the
    observability layer: how many raw values and sub-aggregate states
    this buffer absorbed over its life. *)

val adds : t -> int
(** {!add} calls so far. *)

val merges : t -> int
(** {!merge} calls so far. *)

(** {2 Snapshot support} *)

val write : Buffer.t -> t -> unit
(** Append the pane's image: its store's {!Fw_spill.Store.write} image
    (key-sorted, through the same codec its spill records use), then
    the lifetime counters.  On a pooled pane this faults every spilled
    key in, so the image is self-contained. *)

val read : t -> Fw_spill.Bin.reader -> unit
(** Replace the pane's contents and counters with an image written by
    {!write}.  Raises {!Fw_spill.Bin.Corrupt} on a malformed image. *)
