(** Last-value gauge (float), for levels that go up and down: buffer
    occupancy, queue depth, rates computed at snapshot time.

    Single-writer like {!Counter}. *)

type t

val make : unit -> t
val set : t -> float -> unit
val add : t -> float -> unit
val get : t -> float
