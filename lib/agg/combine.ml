type state =
  | S_min of float
  | S_max of float
  | S_count of int
  | S_sum of float
  | S_avg of { sum : float; count : int }
  | S_stdev of { count : int; mean : float; m2 : float }
      (* Welford's running mean and sum of squared deviations; merged
         with Chan et al.'s pairwise update.  The textbook
         sum/sum-of-squares form cancels catastrophically when the mean
         dwarfs the deviations (values near 1e8 with variance ~1), so
         the state keeps the deviations directly. *)
  | S_median of float list  (* holistic: keeps every value *)

let identity (f : Aggregate.t) =
  match f with
  | Min -> S_min Float.infinity
  | Max -> S_max Float.neg_infinity
  | Count -> S_count 0
  | Sum -> S_sum 0.0
  | Avg -> S_avg { sum = 0.0; count = 0 }
  | Stdev -> S_stdev { count = 0; mean = 0.0; m2 = 0.0 }
  | Median -> S_median []

let of_value (f : Aggregate.t) v =
  match f with
  | Min -> S_min v
  | Max -> S_max v
  | Count -> S_count 1
  | Sum -> S_sum v
  | Avg -> S_avg { sum = v; count = 1 }
  | Stdev -> S_stdev { count = 1; mean = v; m2 = 0.0 }
  | Median -> S_median [ v ]

let add state v =
  match state with
  | S_min m -> S_min (Float.min m v)
  | S_max m -> S_max (Float.max m v)
  | S_count n -> S_count (n + 1)
  | S_sum s -> S_sum (s +. v)
  | S_avg { sum; count } -> S_avg { sum = sum +. v; count = count + 1 }
  | S_stdev { count; mean; m2 } ->
      let count = count + 1 in
      let delta = v -. mean in
      let mean = mean +. (delta /. float_of_int count) in
      S_stdev { count; mean; m2 = m2 +. (delta *. (v -. mean)) }
  | S_median vs -> S_median (v :: vs)

let merge a b =
  match (a, b) with
  | S_min x, S_min y -> S_min (Float.min x y)
  | S_max x, S_max y -> S_max (Float.max x y)
  | S_count x, S_count y -> S_count (x + y)
  | S_sum x, S_sum y -> S_sum (x +. y)
  | S_avg x, S_avg y ->
      S_avg { sum = x.sum +. y.sum; count = x.count + y.count }
  | S_stdev x, S_stdev y ->
      (* Chan, Golub & LeVeque's pairwise combination. *)
      if x.count = 0 then b
      else if y.count = 0 then a
      else
        let na = float_of_int x.count and nb = float_of_int y.count in
        let n = na +. nb in
        let delta = y.mean -. x.mean in
        S_stdev
          {
            count = x.count + y.count;
            mean = x.mean +. (delta *. nb /. n);
            m2 = x.m2 +. y.m2 +. (delta *. delta *. na *. nb /. n);
          }
  | S_median x, S_median y -> S_median (List.rev_append x y)
  | ( (S_min _ | S_max _ | S_count _ | S_sum _ | S_avg _ | S_stdev _
      | S_median _),
      _ ) ->
      invalid_arg "Combine.merge: mismatched aggregate states"

let finalize = function
  | S_min m | S_max m -> m
  | S_count n -> float_of_int n
  | S_sum s -> s
  | S_avg { sum; count } -> sum /. float_of_int count
  | S_stdev { count; m2; _ } ->
      if count = 0 then nan
      else sqrt (Float.max 0.0 (m2 /. float_of_int count))
  | S_median vs -> (
      let sorted = List.sort Float.compare vs in
      let n = List.length sorted in
      match n with
      | 0 -> nan
      | _ ->
          if n land 1 = 1 then List.nth sorted (n / 2)
          else
            let a = List.nth sorted ((n / 2) - 1)
            and b = List.nth sorted (n / 2) in
            (a +. b) /. 2.0)

(* Accumulator columns: the states of many instances of one aggregate,
   one unboxed array per state field.  Every in-place update below is
   the corresponding state function above written against array slots,
   expression for expression, so a slot holds bit for bit what the
   boxed state would.

   "Bit for bit" includes the payload of a nan, which is the one thing
   the expression alone does not fix: when both operands of a float
   [+.] or [*.] are nans, the hardware keeps the first one, and the
   native code generator swaps the operands of a commutative operation
   whose first operand is a plain load from memory and whose second is
   not (to fold the load into the instruction).  A state field is such
   a load, a bounds-checked [a.(i)] is not.  So where a state function
   adds a computed term to a state field, the slot is read with
   [Array.unsafe_get], which is a plain load.  It stays in bounds: a
   checked access to the slot's count column comes first, and all
   columns of one [t] have the same length. *)
module Cols = struct
  type t =
    | C_min of float array
    | C_max of float array
    | C_count of int array
    | C_sum of float array
    | C_avg of { sum : float array; count : int array }
    | C_stdev of { count : int array; mean : float array; m2 : float array }
    | C_median of float list array

  let create (f : Aggregate.t) n =
    match f with
    | Min -> C_min (Array.make n Float.infinity)
    | Max -> C_max (Array.make n Float.neg_infinity)
    | Count -> C_count (Array.make n 0)
    | Sum -> C_sum (Array.make n 0.0)
    | Avg -> C_avg { sum = Array.make n 0.0; count = Array.make n 0 }
    | Stdev ->
        C_stdev
          {
            count = Array.make n 0;
            mean = Array.make n 0.0;
            m2 = Array.make n 0.0;
          }
    | Median -> C_median (Array.make n [])

  let aggregate : t -> Aggregate.t = function
    | C_min _ -> Min
    | C_max _ -> Max
    | C_count _ -> Count
    | C_sum _ -> Sum
    | C_avg _ -> Avg
    | C_stdev _ -> Stdev
    | C_median _ -> Median

  let mismatch fn =
    invalid_arg ("Combine.Cols." ^ fn ^ ": mismatched aggregate states")

  (* The value is read from its column [vs] here, unboxed: a float
     passed to these functions would be boxed at every call. *)
  let of_value c i vs j =
    let v = vs.(j) in
    match c with
    | C_min a | C_max a | C_sum a -> a.(i) <- v
    | C_count a -> a.(i) <- 1
    | C_avg { sum; count } ->
        sum.(i) <- v;
        count.(i) <- 1
    | C_stdev { count; mean; m2 } ->
        count.(i) <- 1;
        mean.(i) <- v;
        m2.(i) <- 0.0
    | C_median a -> a.(i) <- [ v ]

  let add c i vs j =
    let v = vs.(j) in
    match c with
    | C_min a -> a.(i) <- Float.min a.(i) v
    | C_max a -> a.(i) <- Float.max a.(i) v
    | C_count a -> a.(i) <- a.(i) + 1
    | C_sum a -> a.(i) <- a.(i) +. v
    | C_avg { sum; count } ->
        sum.(i) <- sum.(i) +. v;
        count.(i) <- count.(i) + 1
    | C_stdev { count; mean; m2 } ->
        let n = count.(i) + 1 in
        let delta = v -. mean.(i) in
        let mu = Array.unsafe_get mean i +. (delta /. float_of_int n) in
        count.(i) <- n;
        mean.(i) <- mu;
        m2.(i) <- Array.unsafe_get m2 i +. (delta *. (v -. mu))
    | C_median a -> a.(i) <- v :: a.(i)

  let set c i st =
    match (c, st) with
    | C_min a, S_min m | C_max a, S_max m | C_sum a, S_sum m -> a.(i) <- m
    | C_count a, S_count n -> a.(i) <- n
    | C_avg c, S_avg s ->
        c.sum.(i) <- s.sum;
        c.count.(i) <- s.count
    | C_stdev c, S_stdev s ->
        c.count.(i) <- s.count;
        c.mean.(i) <- s.mean;
        c.m2.(i) <- s.m2
    | C_median a, S_median vs -> a.(i) <- vs
    | ( (C_min _ | C_max _ | C_count _ | C_sum _ | C_avg _ | C_stdev _
        | C_median _),
        _ ) ->
        mismatch "set"

  let merge c i st =
    match (c, st) with
    | C_min a, S_min y -> a.(i) <- Float.min a.(i) y
    | C_max a, S_max y -> a.(i) <- Float.max a.(i) y
    | C_count a, S_count y -> a.(i) <- a.(i) + y
    | C_sum a, S_sum y -> a.(i) <- a.(i) +. y
    | C_avg c, S_avg y ->
        c.sum.(i) <- c.sum.(i) +. y.sum;
        c.count.(i) <- c.count.(i) + y.count
    | C_stdev c, S_stdev y ->
        let xcount = c.count.(i) in
        if xcount = 0 then begin
          c.count.(i) <- y.count;
          c.mean.(i) <- y.mean;
          c.m2.(i) <- y.m2
        end
        else if y.count <> 0 then begin
          let na = float_of_int xcount and nb = float_of_int y.count in
          let n = na +. nb in
          let delta = y.mean -. c.mean.(i) in
          c.count.(i) <- xcount + y.count;
          c.mean.(i) <- Array.unsafe_get c.mean i +. (delta *. nb /. n);
          c.m2.(i) <- c.m2.(i) +. y.m2 +. (delta *. delta *. na *. nb /. n)
        end
    | C_median a, S_median y -> a.(i) <- List.rev_append a.(i) y
    | ( (C_min _ | C_max _ | C_count _ | C_sum _ | C_avg _ | C_stdev _
        | C_median _),
        _ ) ->
        mismatch "merge"

  let get c i =
    match c with
    | C_min a -> S_min a.(i)
    | C_max a -> S_max a.(i)
    | C_count a -> S_count a.(i)
    | C_sum a -> S_sum a.(i)
    | C_avg { sum; count } -> S_avg { sum = sum.(i); count = count.(i) }
    | C_stdev { count; mean; m2 } ->
        S_stdev { count = count.(i); mean = mean.(i); m2 = m2.(i) }
    | C_median a -> S_median a.(i)

  let clear c i =
    match c with
    | C_min a -> a.(i) <- Float.infinity
    | C_max a -> a.(i) <- Float.neg_infinity
    | C_count a -> a.(i) <- 0
    | C_sum a -> a.(i) <- 0.0
    | C_avg { sum; count } ->
        sum.(i) <- 0.0;
        count.(i) <- 0
    | C_stdev { count; mean; m2 } ->
        count.(i) <- 0;
        mean.(i) <- 0.0;
        m2.(i) <- 0.0
    | C_median a -> a.(i) <- []

  let length = function
    | C_min a | C_max a | C_sum a -> Array.length a
    | C_count a | C_avg { count = a; _ } | C_stdev { count = a; _ } ->
        Array.length a
    | C_median a -> Array.length a

  (* [merge c i (get src j)] with the state's fields read from [src]'s
     columns, expression for expression (so the slot being updated is
     the first operand everywhere, as it is in [merge]). *)
  let merge_slot src j c i =
    match (c, src) with
    | C_min a, C_min b -> a.(i) <- Float.min a.(i) b.(j)
    | C_max a, C_max b -> a.(i) <- Float.max a.(i) b.(j)
    | C_count a, C_count b -> a.(i) <- a.(i) + b.(j)
    | C_sum a, C_sum b -> a.(i) <- a.(i) +. b.(j)
    | C_avg c, C_avg y ->
        c.sum.(i) <- c.sum.(i) +. y.sum.(j);
        c.count.(i) <- c.count.(i) + y.count.(j)
    | C_stdev c, C_stdev y ->
        let xcount = c.count.(i) and ycount = y.count.(j) in
        if xcount = 0 then begin
          c.count.(i) <- ycount;
          c.mean.(i) <- y.mean.(j);
          c.m2.(i) <- y.m2.(j)
        end
        else if ycount <> 0 then begin
          let na = float_of_int xcount and nb = float_of_int ycount in
          let n = na +. nb in
          let delta = y.mean.(j) -. c.mean.(i) in
          c.count.(i) <- xcount + ycount;
          c.mean.(i) <- Array.unsafe_get c.mean i +. (delta *. nb /. n);
          c.m2.(i) <- c.m2.(i) +. y.m2.(j) +. (delta *. delta *. na *. nb /. n)
        end
    | C_median a, C_median b -> a.(i) <- List.rev_append a.(i) b.(j)
    | ( (C_min _ | C_max _ | C_count _ | C_sum _ | C_avg _ | C_stdev _
        | C_median _),
        _ ) ->
        mismatch "merge_slot"

  let finalize c i =
    match c with
    | C_min a | C_max a | C_sum a -> a.(i)
    | C_count a -> float_of_int a.(i)
    | C_avg { sum; count } -> sum.(i) /. float_of_int count.(i)
    | C_stdev { count; m2; _ } ->
        if count.(i) = 0 then nan
        else sqrt (Float.max 0.0 (m2.(i) /. float_of_int count.(i)))
    | C_median a -> finalize (S_median a.(i))

  let copy src i dst j =
    match (src, dst) with
    | C_min a, C_min b | C_max a, C_max b | C_sum a, C_sum b ->
        b.(j) <- a.(i)
    | C_count a, C_count b -> b.(j) <- a.(i)
    | C_avg a, C_avg b ->
        b.sum.(j) <- a.sum.(i);
        b.count.(j) <- a.count.(i)
    | C_stdev a, C_stdev b ->
        b.count.(j) <- a.count.(i);
        b.mean.(j) <- a.mean.(i);
        b.m2.(j) <- a.m2.(i)
    | C_median a, C_median b -> b.(j) <- a.(i)
    | ( (C_min _ | C_max _ | C_count _ | C_sum _ | C_avg _ | C_stdev _
        | C_median _),
        _ ) ->
        mismatch "copy"

  let grow c n =
    let d = create (aggregate c) n in
    for i = 0 to min n (length c) - 1 do
      copy c i d i
    done;
    d
end

(* STDEV is deliberately absent even though {!inverse} succeeds on its
   states: undoing a merge computes M2 as a difference of nearly equal
   quantities, so a window whose true variance is 0 comes back as ~1e-13
   worth of residual — far outside the differential oracle's tolerance
   once square-rooted.  Sliding queues therefore treat STDEV like the
   non-invertible aggregates and re-merge exactly the in-window panes. *)
let invertible : Aggregate.t -> bool = function
  | Count | Sum | Avg -> true
  | Stdev | Min | Max | Median -> false

let inverse total part =
  match (total, part) with
  | S_count x, S_count y -> if x >= y then Some (S_count (x - y)) else None
  | S_sum x, S_sum y -> Some (S_sum (x -. y))
  | S_avg x, S_avg y ->
      if x.count >= y.count then
        Some (S_avg { sum = x.sum -. y.sum; count = x.count - y.count })
      else None
  | S_stdev x, S_stdev y ->
      if x.count < y.count then None
      else if y.count = 0 then Some total
      else if x.count = y.count then
        Some (S_stdev { count = 0; mean = 0.0; m2 = 0.0 })
      else
        (* Undo the Chan merge: with n = na + nb known, recover the mean
           and M2 of the removed-complement part a. *)
        let n = float_of_int x.count and nb = float_of_int y.count in
        let na = float_of_int (x.count - y.count) in
        let mean_a = ((n *. x.mean) -. (nb *. y.mean)) /. na in
        let delta = y.mean -. mean_a in
        let m2_a = x.m2 -. y.m2 -. (delta *. delta *. na *. nb /. n) in
        Some
          (S_stdev
             { count = x.count - y.count; mean = mean_a; m2 = Float.max 0.0 m2_a })
  | (S_min _ | S_max _ | S_median _), _ -> None
  | (S_count _ | S_sum _ | S_avg _ | S_stdev _), _ ->
      invalid_arg "Combine.inverse: mismatched aggregate states"

let count_of = function
  | S_min _ | S_max _ | S_sum _ -> 1
  | S_count n -> n
  | S_avg { count; _ } | S_stdev { count; _ } -> count
  | S_median vs -> List.length vs

let aggregate_of : state -> Aggregate.t = function
  | S_min _ -> Min
  | S_max _ -> Max
  | S_count _ -> Count
  | S_sum _ -> Sum
  | S_avg _ -> Avg
  | S_stdev _ -> Stdev
  | S_median _ -> Median

(* The serializable view mirrors the state constructors one-for-one.
   [of_view] re-validates counts so a decoded snapshot can never smuggle
   a state that [add]/[merge] would have refused to build. *)
type view =
  | V_min of float
  | V_max of float
  | V_count of int
  | V_sum of float
  | V_avg of { sum : float; count : int }
  | V_stdev of { count : int; mean : float; m2 : float }
  | V_median of float list

let view = function
  | S_min m -> V_min m
  | S_max m -> V_max m
  | S_count n -> V_count n
  | S_sum s -> V_sum s
  | S_avg { sum; count } -> V_avg { sum; count }
  | S_stdev { count; mean; m2 } -> V_stdev { count; mean; m2 }
  | S_median vs -> V_median vs

let of_view v =
  let check_count what n =
    if n < 0 then
      invalid_arg (Printf.sprintf "Combine.of_view: negative %s count" what)
  in
  match v with
  | V_min m -> S_min m
  | V_max m -> S_max m
  | V_count n ->
      check_count "COUNT" n;
      S_count n
  | V_sum s -> S_sum s
  | V_avg { sum; count } ->
      check_count "AVG" count;
      S_avg { sum; count }
  | V_stdev { count; mean; m2 } ->
      check_count "STDEV" count;
      S_stdev { count; mean; m2 }
  | V_median vs -> S_median vs

let pp ppf s =
  Format.fprintf ppf "%a-state(%g)" Aggregate.pp (aggregate_of s)
    (finalize s)

let equal_result a b =
  if Float.is_nan a && Float.is_nan b then true
  else
    let scale = Float.max 1.0 (Float.max (Float.abs a) (Float.abs b)) in
    Float.abs (a -. b) <= 1e-9 *. scale
