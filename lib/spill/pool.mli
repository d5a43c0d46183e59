(** Memory-budget pool: shared accounting and eviction driver for every
    {!Store} of one engine.

    A pool owns one byte budget and the directory spill files live in.
    Stores report every resident-weight change; when the total exceeds
    the budget, {!rebalance} asks the member stores round-robin to each
    shed one cold entry until the total fits or only pinned entries
    remain — so the enforced bound is
    [budget + pinned slack], one entry: the one a store's
    [iter]/[fold] is visiting (the engine's visits never nest).

    Single-writer, like the {!Fw_obs} cells it publishes
    ([spill_resident_bytes], [spill_resident_keys], [spill_disk_bytes],
    [spill_evictions_total], [spill_writes_total],
    [spill_evicted_bytes_total],
    [spill_faults_total], [spill_fault_ns], [spill_compactions_total],
    [spill_compacted_bytes_total], [spill_compaction_ns]): one pool per
    domain. *)

type t

val create :
  ?registry:Fw_obs.Registry.t ->
  ?labels:(string * string) list ->
  ?dir:string ->
  budget:int ->
  unit ->
  t
(** [create ~budget ()] builds a pool with a private temporary spill
    directory (removed on {!close}); pass [~dir] to use a fixed
    directory instead (created if missing, left in place on close —
    only the spill files themselves are deleted).  Metrics are
    published on [registry] when given, under [labels] (so several
    pools — e.g. one per server query group — keep distinct series) (e.g. the engine's
    {!Fw_engine.Metrics.registry}), on a private registry otherwise.
    [budget] is in bytes; [0] is valid and forces every access to
    fault.  Raises [Invalid_argument] on a negative budget. *)

val budget : t -> int
val set_budget : t -> int -> unit
(** Adjust the budget (e.g. the server rebalancing shares as query
    groups come and go); shrinking evicts immediately. *)

val dir : t -> string
val resident_bytes : t -> int
val resident_keys : t -> int
val disk_bytes : t -> int

val peak_resident_bytes : t -> int
(** Highest resident total observed {e after} enforcement — the bound
    the pool actually guarantees, asserted by the bench. *)

val max_entry_bytes : t -> int
(** Largest single entry weight seen; the unavoidable slack unit. *)

val evictions : t -> int
val faults : t -> int
val compactions : t -> int

val writes : t -> int
(** Spill-file [write] calls: append tails, records larger than a tail
    and compaction chunks. *)

val rebalance : t -> unit
(** Evict until the resident total fits the budget (or only pinned
    entries remain).  Stores call this after any growth. *)

val close : t -> unit
(** Close and delete every member store's spill files (its current file
    and its emptied compaction target); removes the pool's temporary
    directory when it owns one.  Idempotent. *)

(**/**)

(* Store-internal wiring — not for engine code. *)

val fresh_file : t -> name:string -> File.t  (* counts its writes *)
val copier : t -> File.copier  (* compaction buffers, shared: never nested *)
val register : t -> evict:(unit -> int) -> close:(unit -> unit) -> int
val unregister : t -> int -> unit
val grow : t -> int -> unit
val shrink : t -> int -> unit
val entry_added : t -> unit
val entry_dropped : t -> unit
val note_entry_weight : t -> int -> unit
val record_eviction : t -> bytes:int -> unit
val record_fault : t -> ns:int -> unit
val record_compaction : t -> reclaimed:int -> ns:int -> unit
val set_disk : t -> int -> unit
