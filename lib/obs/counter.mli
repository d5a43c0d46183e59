(** Monotone integer counter: a single mutable cell, so an increment on
    the hot path costs one load/add/store and never allocates.

    Not atomic: the cell expects a single writer domain (concurrent
    increments are memory-safe in OCaml 5 but can lose updates).  Other
    domains may read it: a read returns some written value, never a
    torn one. *)

type t

val make : unit -> t
val inc : t -> unit
val add : t -> int -> unit
val get : t -> int
val reset : t -> unit
