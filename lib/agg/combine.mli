(** Runtime sub-aggregate states: the [g]/[h] functions of the taxonomy,
    packaged as a commutative monoid with a partial inverse.

    A {!state} is the constant-size summary produced by [g] for
    distributive/algebraic functions, or the full multiset of values for
    holistic ones.  States are built from raw values ({!of_value},
    {!add}), merged across sub-windows ({!merge}), and finalized into
    the aggregate result ({!finalize}).

    The monoid structure is what the incremental executors lean on:
    {!identity} is a neutral element for {!merge}, {!merge} is
    associative and commutative up to floating-point rounding, and for
    the aggregates with an algebraic inverse (COUNT/SUM/AVG/STDEV)
    {!inverse} undoes a merge — the subtract-on-evict fast path of
    {!Fw_agg.Swag}.  MIN/MAX/MEDIAN have no inverse; sliding queues
    over them use the two-stacks flip instead, as they do for STDEV,
    whose inverse exists but is numerically treacherous (see
    {!invertible}).

    {!merge} corresponds to aggregating sub-aggregates.  For MIN/MAX it
    is sound even when sub-windows overlap (Theorem 6); for
    COUNT/SUM/AVG/STDEV it is only sound over disjoint partitions
    (Theorem 5) — enforcing that is the optimizer's job (it selects
    partitioned-by edges for those functions).

    STDEV states keep Welford-style (count, mean, M2) rather than
    (sum, sum-of-squares): the latter cancels catastrophically when the
    mean dwarfs the spread (values near 1e8 with variance ~1 lose every
    significant digit of the variance).  {!merge} uses Chan, Golub &
    LeVeque's pairwise update, which is stable in the same regime. *)

type state

val identity : Aggregate.t -> state
(** The neutral element: [merge (identity f) s = s] and
    [add (identity f) v = of_value f v].  Finalizing an identity state
    yields the aggregate's empty-input value (infinities for MIN/MAX,
    [0] for COUNT/SUM, [nan] for AVG/STDEV/MEDIAN). *)

val of_value : Aggregate.t -> float -> state
(** Summary of a singleton input. *)

val add : state -> float -> state
(** Fold one more raw value into a summary. *)

val merge : state -> state -> state
(** Combine two sub-aggregate summaries.  Raises [Invalid_argument] when
    the states come from different aggregate functions. *)

(** {2 Accumulator columns}

    The states of many slots of one aggregate, stored column-wise with
    one layout per family: one float column for MIN, MAX and SUM, one
    int column for COUNT, float + int for AVG, int + two floats for
    STDEV (Welford's count, mean, M2), and boxed list slots only for
    holistic MEDIAN.  An update writes unboxed numbers in place: no
    state is allocated, and no pointer is stored into a long-lived
    array, so a long-lived column costs the GC nothing per update.

    Each in-place operation computes exactly what its state
    counterpart does, bit for bit: after [of_value c i v], [add c i v],
    [set c i s] or [merge c i s], [get c i] equals (in every float bit)
    [of_value f v], [add (get c i) v], [s] or [merge (get c i) s]. *)
module Cols : sig
  type t = private
    | C_min of float array
    | C_max of float array
    | C_count of int array
    | C_sum of float array
    | C_avg of { sum : float array; count : int array }
    | C_stdev of { count : int array; mean : float array; m2 : float array }
    | C_median of float list array
  (** The layout is public so that encoders ({!Fw_agg.Bincodec}) read a
      slot without building its state; write slots only through the
      functions below. *)

  val create : Aggregate.t -> int -> t
  (** [create f n]: [n] slots of [f], each holding [identity f]. *)

  val aggregate : t -> Aggregate.t

  val of_value : t -> int -> float -> unit
  (** Slot [i] := {!Combine.of_value} of the columns' aggregate. *)

  val add : t -> int -> float -> unit
  (** Slot [i] := {!Combine.add} of it and the value. *)

  val set : t -> int -> state -> unit
  (** Slot [i] := the state.  Raises [Invalid_argument] when the state
      comes from a different aggregate. *)

  val merge : t -> int -> state -> unit
  (** Slot [i] := {!Combine.merge} of it and the state.  Raises
      [Invalid_argument] when the state comes from a different
      aggregate. *)

  val get : t -> int -> state
  (** Slot [i] as a state (a fresh allocation). *)

  val clear : t -> int -> unit
  (** Slot [i] := the identity, dropping what it referenced. *)

  val copy : t -> int -> t -> int -> unit
  (** [copy src i dst j]: slot [j] of [dst] := slot [i] of [src], with
      no state built.  Raises [Invalid_argument] across aggregates. *)

  val merge_slot : t -> int -> t -> int -> unit
  (** [merge_slot src j c i]: slot [i] of [c] := {!Combine.merge} of it
      and slot [j] of [src] — exactly [merge c i (get src j)], with no
      state built.  Raises [Invalid_argument] across aggregates. *)

  val finalize : t -> int -> float
  (** {!Combine.finalize} of slot [i], with no state built. *)

  val grow : t -> int -> t
  (** [grow c n]: fresh columns of [n] slots, the first [min n (length
      c)] copied from [c], the rest identities. *)
end

val invertible : Aggregate.t -> bool
(** Whether subtract-on-evict is {e numerically safe} for this
    aggregate: [true] for COUNT/SUM/AVG only.  STDEV's {!inverse}
    exists algebraically but computes M2 as a difference of nearly
    equal quantities (catastrophic cancellation: a zero-variance window
    acquires a spurious residual), so eviction must re-merge instead of
    subtract — the two-stacks path. *)

val inverse : state -> state -> state option
(** [inverse total part] removes [part]'s contribution from [total]:
    if [total = merge a part] then [inverse total part] recovers [a]
    (up to floating-point rounding).  Returns [None] for
    non-invertible aggregates (MIN/MAX/MEDIAN) and when [part] counts
    more items than [total].  Raises [Invalid_argument] when the states
    come from different aggregate functions. *)

val finalize : state -> float
(** The [h] function: extract the aggregate result.  For COUNT the
    result is the count as a float; MEDIAN of an even-sized multiset is
    the mean of the two middle values. *)

val count_of : state -> int
(** Number of raw values summarized, for states that track it (COUNT,
    AVG, STDEV, MEDIAN); [1] for MIN/MAX/SUM whose summaries carry no
    count.  Diagnostics and tests only. *)

val aggregate_of : state -> Aggregate.t

(** {2 Serializable view}

    A one-to-one public mirror of the state constructors so the
    checkpoint codec ({!Fw_snap.Codec}) can serialize engine state
    without this module growing an I/O dependency.  The view is the
    {e exact} internal representation — round-tripping through it
    preserves every float bit, which the byte-identical recovery
    guarantee relies on. *)

type view =
  | V_min of float
  | V_max of float
  | V_count of int
  | V_sum of float
  | V_avg of { sum : float; count : int }
  | V_stdev of { count : int; mean : float; m2 : float }
      (** Welford / Chan running (count, mean, M2) *)
  | V_median of float list  (** holistic: the raw multiset, newest first *)

val view : state -> view

val of_view : view -> state
(** Raises [Invalid_argument] on a view no sequence of
    {!of_value}/{!add}/{!merge} could have produced (negative counts). *)

val pp : Format.formatter -> state -> unit

val equal_result : float -> float -> bool
(** Result comparison with a small relative tolerance, for comparing
    naive vs rewritten plan outputs (floating-point merge order may
    differ). *)
