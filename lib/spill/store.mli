(** Keyed state store with a pluggable backend: [Resident] (the bare
    table — the default when no {!Pool} is given) or [Budgeted]
    (clock/second-chance eviction of cold entries to an append-only
    spill file, lazy fault-in on access, compaction when over half the
    file is garbage).  A budgeted store keeps its spilled entries on a
    ring in file order, which compaction walks to copy the live records
    into the store's previous file, kept open and emptied: a store owns
    at most two spill files, only its first compaction creates one, and
    none deletes one.

    Both backends keep their entries in one string-keyed chained table
    whose bucket nodes hold the value and the key's hash: every
    operation below hashes the key once and walks one bucket once,
    comparing hashes before keys.  For the same history of
    insertions, removals and {!clear}s, the resident {!iter} and {!fold}
    visit entries in the order a generic stdlib [Hashtbl] would (the
    budgeted backend visits them in the reverse of that order).

    The budgeted backend is invisible to results by construction:
    eviction serializes exactly the codec's bytes and fault-in decodes
    exactly them back (floats as IEEE bit patterns), so a faulted entry
    is bit-identical to the evicted one, and fold order inside an entry
    is whatever the engine performed.  The differential fuzzer's
    [spilled] path byte-compares rows and cost counters against the
    resident backend to pin this.

    Usage contract (what the engine's operators follow):

    - {!find} values are read-only unless followed by {!set}.
    - In-place mutation goes through {!access}, closed by {!commit} or
      by {!remove} of the same key, with no other store operation in
      between: nothing can evict the value mid-mutation.  An operator
      that forwards to other operators does so after the close.
    - The {!iter}/{!fold} callbacks are the one exception: the visited
      entry is pinned, so the callback may mutate it in place and
      operate on other stores of the pool.  Pinned entries are never
      evicted, so the pool may overshoot its budget by one entry per
      visit in progress.

    A corrupt or truncated spill record surfaces at fault-in as
    {!File.Fault} naming the store, key and reason — never as silently
    wrong state. *)

type 'a codec = {
  kind : int;
      (** state-kind tag byte written into every record; fault-in
          rejects a record whose tag disagrees *)
  enc : Buffer.t -> 'a -> unit;
  dec : Bin.reader -> 'a;
  weight : 'a -> int;
      (** resident-bytes estimate; drives eviction accounting only,
          never results *)
}

type 'a t

val create : ?pool:Pool.t -> name:string -> 'a codec -> 'a t
(** Without [pool]: the resident backend.  With [pool]: the budgeted
    backend, registered with the pool for eviction sweeps; its spill
    file (named after [name]) is created lazily on first eviction, its
    compaction target at the first compaction, and both are deleted by
    {!Pool.close}. *)

val hash : string -> int
(** The table's key hash, a C stub equal to [Hashtbl.hash] on every
    string: the visit order above rests on that equality. *)

val length : 'a t -> int
(** Live entries (resident + spilled). *)

val is_empty : 'a t -> bool

val find : 'a t -> string -> 'a option
(** Faults the entry in if spilled and marks it hot.  Treat the value
    as read-only unless a {!set} of the same key follows. *)

val set : 'a t -> string -> 'a -> unit
val remove : 'a t -> string -> unit
(** Drop [key]'s entry, if any.  Also closes an open {!access} of
    [key]: the engine's firing paths drop a key they emptied this
    way. *)

val access : 'a t -> string -> init:(unit -> 'a) -> 'a
(** [access t key ~init] is [key]'s live value, for the caller to
    mutate in place: faulted in if spilled, or made with [init ()] and
    inserted when absent.  One probe and no callback.  Close every
    access with {!commit}, or with {!remove} of [key], before any other
    operation on a store of the same pool.  The budgeted backend leaves
    the entry's hot bit, weight and the pool's rebalance to {!commit}:
    a new entry is accounted only there, at its mutated weight, so
    evictions and spill records follow the value as the mutation left
    it. *)

val commit : 'a t -> unit
(** Close the last {!access}: the budgeted backend marks the entry hot,
    re-accounts its weight, rebalances the pool and compacts the spill
    file when due, as {!set} does; the resident one does nothing.
    Raises [Invalid_argument] on a budgeted store with no open
    access. *)

val iter : (string -> 'a -> unit) -> 'a t -> unit
(** Visit every entry (in the order described above); spilled entries
    fault in, and the current entry is pinned during its callback.  The
    callback may mutate the visited value and touch other stores, but
    must not add/remove entries of this store — collect and apply
    afterwards. *)

val fold : (string -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Same visiting rules as {!iter}.  Folding over a budgeted store
    faults every entry in. *)

val clear : 'a t -> unit
(** Drop every entry and truncate the spill file. *)

val release : 'a t -> unit
(** Drop every entry, delete the spill files and leave the pool, for a
    store that will not be used again. *)

val check_ring : 'a t -> (unit, string) result
(** The budgeted backend's spill-ring invariant, for tests: the ring's
    links are consistent, it holds exactly the spilled entries of the
    table, in ascending offset order, and their record lengths sum to
    the spill file's live bytes.  [Ok ()] for the resident backend. *)

(** {2 Whole-store image}

    The snapshot form of a store: [count i64] then, in ascending key
    order, each entry's key ({!Bin.w_string}) followed by its codec
    payload — the bytes its spill record holds.  One encoder per state
    family serves both spilling and checkpoints. *)

val write : Buffer.t -> 'a t -> unit
(** Append the store's image.  Spilled entries are faulted in (as with
    {!fold}), and the key order makes the image byte-identical
    whatever the backend and eviction history. *)

val read : (string -> 'a -> unit) -> 'a t -> Bin.reader -> unit
(** [read f t r] replaces [t]'s contents with the image at [r], calling
    [f key v] on each entry as it is loaded (to rebuild resident
    indexes over the entries).  Raises {!Bin.Corrupt} on a malformed
    image, including duplicate or out-of-order keys. *)
