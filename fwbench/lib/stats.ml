(* Sample sets and percentile selection.

   A percentile is reported with its sample count and with how many
   samples lie beyond it; a tail figure backed by fewer than
   [min_beyond] samples past the percentile is noise, and the run that
   reports it fails (see [Report]). *)

type samples = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 256 0.0; n = 0 }

let add s x =
  if s.n = Array.length s.a then begin
    let a = Array.make (2 * s.n) 0.0 in
    Array.blit s.a 0 a 0 s.n;
    s.a <- a
  end;
  s.a.(s.n) <- x;
  s.n <- s.n + 1

let length s = s.n
let to_array s = Array.sub s.a 0 s.n

let of_list l =
  let s = create () in
  List.iter (add s) l;
  s

let sorted s =
  let a = to_array s in
  Array.sort Float.compare a;
  a

type pct = { q : float; value : float; n : int; beyond : int }

let min_beyond = 10

(* Nearest rank: the [ceil (q·n)]-th smallest sample.  The epsilon keeps
   [0.99 *. 1000.] (which is not exactly 990) on rank 990. *)
let rank ~q n =
  let k = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n k)

let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then { q; value = nan; n = 0; beyond = 0 }
  else
    let k = rank ~q n in
    { q; value = a.(k - 1); n; beyond = n - k }

let percentile s q = percentile_sorted (sorted s) q

(* Smallest sample count whose [q]-percentile has [min_beyond] samples
   past it: 1000 for a p99, 200 for a p95. *)
let min_samples q =
  let rec go n = if n - rank ~q n >= min_beyond then n else go (n + 1) in
  go 1

let enough p = p.beyond >= min_beyond

let quantile_list l q =
  match l with [] -> nan | _ -> (percentile (of_list l) q).value

let median_list l = quantile_list l 0.5


(* A latency percentile that a burst of host interference cannot move:
   split the samples, in the order they were taken, into as many
   consecutive chunks as still give every chunk [min_samples q] samples,
   take the percentile of each chunk, and report the median of those.
   With [~period] (the samples one segment takes), chunks are whole
   segments, so every chunk holds the same mix of cheap and costly calls
   and a tail percentile cannot move with where a boundary falls.  [n] is
   the total sample count, [beyond] the smallest chunk's count past its
   percentile, so [enough] still holds the ten-beyond rule per chunk. *)
let chunked_percentile ?(period = 1) (s : samples) q =
  let period = max 1 period in
  let units = s.n / period in
  let per = (min_samples q + period - 1) / period in
  let k = max 1 (units / per) in
  let bound i = if i = k then s.n else i * units / k * period in
  let chunk i =
    let lo = bound i and hi = bound (i + 1) in
    let a = Array.sub s.a lo (hi - lo) in
    Array.sort Float.compare a;
    percentile_sorted a q
  in
  let parts = List.init k chunk in
  {
    q;
    value = median_list (List.map (fun p -> p.value) parts);
    n = s.n;
    beyond = List.fold_left (fun acc p -> min acc p.beyond) max_int parts;
  }
