module Cols = Fw_agg.Combine.Cols
module Bin = Fw_spill.Bin
module Bincodec = Fw_agg.Bincodec

(* Logical position [i] (0 = front) lives in physical slot
   [(head + i) land (capacity - 1)].  Positions [0 .. len-1] hold live
   instances in strictly ascending [ms]; a slot with [items = 0] is
   either outside that span or a fresh slot of the fold in progress.
   Slot [j]'s state lives in slot [j] of [cols]. *)
type t = {
  mutable head : int;
  mutable len : int;
  mutable ms : int array;  (** instance numbers *)
  mutable cols : Cols.t;
  mutable items : int array;
}

let min_capacity = 4

let create agg =
  {
    head = 0;
    len = 0;
    ms = Array.make min_capacity 0;
    cols = Cols.create agg min_capacity;
    items = Array.make min_capacity 0;
  }

let is_empty t = t.len = 0
let slot t i = (t.head + i) land (Array.length t.ms - 1)

let rec pow2_at_least n c = if c >= n then c else pow2_at_least n (2 * c)

(* Move the live span to the front of fresh arrays of [cap] slots. *)
let resize t cap =
  let ms = Array.make cap 0
  and cols = Cols.create (Cols.aggregate t.cols) cap
  and items = Array.make cap 0 in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    ms.(i) <- t.ms.(j);
    Cols.copy t.cols j cols i;
    items.(i) <- t.items.(j)
  done;
  t.head <- 0;
  t.ms <- ms;
  t.cols <- cols;
  t.items <- items

(* Append fresh slots for instances [first .. last], all above the back. *)
let append t ~first ~last =
  let n = t.len + last - first + 1 in
  if n > Array.length t.ms then resize t (pow2_at_least n (Array.length t.ms));
  for m = first to last do
    let j = slot t t.len in
    t.ms.(j) <- m;
    t.len <- t.len + 1
  done

(* The general case: rebuild the ring as the sorted union of its live
   instances and [first .. last].  Returns the position of [first]. *)
let merge t ~first ~last =
  let cap = pow2_at_least (t.len + last - first + 1) min_capacity in
  let ms = Array.make cap 0
  and cols = Cols.create (Cols.aggregate t.cols) cap
  and items = Array.make cap 0 in
  let k = ref 0 and i = ref 0 and m = ref first and pos = ref 0 in
  while !i < t.len || !m <= last do
    let om = if !i < t.len then t.ms.(slot t !i) else max_int in
    let rm = if !m <= last then !m else max_int in
    if om <= rm then begin
      let j = slot t !i in
      ms.(!k) <- om;
      Cols.copy t.cols j cols !k;
      items.(!k) <- t.items.(j);
      incr i
    end
    else ms.(!k) <- rm;
    if rm <= om then incr m;
    if ms.(!k) = first then pos := !k;
    incr k
  done;
  t.head <- 0;
  t.len <- !k;
  t.ms <- ms;
  t.cols <- cols;
  t.items <- items;
  !pos

(* Make every instance of [first .. last] present; the position of
   [first].  In order, the range either starts past the back (a new
   cluster) or overlaps the back block [first .. back] exactly. *)
let reserve t ~first ~last =
  if t.len = 0 || first > t.ms.(slot t (t.len - 1)) then begin
    let p = t.len in
    append t ~first ~last;
    p
  end
  else
    let back = t.ms.(slot t (t.len - 1)) in
    let p = t.len - 1 - (back - first) in
    if p >= 0 && t.ms.(slot t p) = first then begin
      if last > back then append t ~first:(back + 1) ~last;
      p
    end
    else merge t ~first ~last

(* Fold [vs.(i)] into every slot of [first .. last], written out so
   that the value is never boxed and the update needs no closure. *)
let fold_value t ~first ~last vs i ~born =
  if first <= last then begin
    let p = reserve t ~first ~last in
    for k = p to p + last - first do
      let j = slot t k in
      let n = t.items.(j) in
      if n = 0 then begin
        born t.ms.(j);
        Cols.of_value t.cols j vs i
      end
      else Cols.add t.cols j vs i;
      t.items.(j) <- n + 1
    done
  end

(* [fold_value] with slot [i] of [src] as the item. *)
let fold_slot t ~first ~last src i ~born =
  if first <= last then begin
    let p = reserve t ~first ~last in
    for k = p to p + last - first do
      let j = slot t k in
      let n = t.items.(j) in
      if n = 0 then begin
        born t.ms.(j);
        Cols.copy src i t.cols j
      end
      else Cols.merge_slot src i t.cols j;
      t.items.(j) <- n + 1
    done
  end

let front t =
  if t.len = 0 then invalid_arg "Ring.front: empty ring";
  t.ms.(t.head)

let pop_into t dst i =
  if t.len = 0 then invalid_arg "Ring.pop_into: empty ring";
  let j = t.head in
  Cols.copy t.cols j dst i;
  let items = t.items.(j) in
  Cols.clear t.cols j;
  t.items.(j) <- 0;
  t.head <- (j + 1) land (Array.length t.ms - 1);
  t.len <- t.len - 1;
  let cap = Array.length t.ms in
  if cap > min_capacity && 4 * t.len <= cap then resize t (cap / 2);
  items

let iter f t =
  for i = 0 to t.len - 1 do
    let j = slot t i in
    f t.ms.(j) (Cols.get t.cols j) t.items.(j)
  done

(* --- store codec ------------------------------------------------------ *)

let write b ~range ~slide t =
  Bin.w_i64 b t.len;
  for i = 0 to t.len - 1 do
    let j = slot t i in
    Bin.w_i64 b ((t.ms.(j) * slide) + range);
    Bincodec.w_slot b t.cols j;
    Bin.w_i64 b t.items.(j)
  done

let read agg ~range ~slide r =
  let n = Bin.r_i64 r in
  (* every instance occupies at least one byte *)
  if n < 0 || n > Bin.remaining r then
    Bin.corrupt "invalid instance count %d (%d bytes remaining)" n
      (Bin.remaining r);
  let t = create agg in
  for _ = 1 to n do
    let hi = Bin.r_i64 r in
    let state = Bincodec.r_state r in
    let items = Bin.r_i64 r in
    if hi - range < 0 || (hi - range) mod slide <> 0 then
      Bin.corrupt "instance bound %d off the grid of range %d, slide %d" hi
        range slide;
    let m = (hi - range) / slide in
    if t.len > 0 && m <= t.ms.(slot t (t.len - 1)) then
      Bin.corrupt "instance bound %d not above its predecessor" hi;
    if items < 1 then Bin.corrupt "instance %d folded %d items" hi items;
    append t ~first:m ~last:m;
    let j = slot t (t.len - 1) in
    (try Cols.set t.cols j state
     with Invalid_argument _ ->
       Bin.corrupt "instance %d holds a %s state in a %s ring" hi
         (Fw_agg.Aggregate.to_string (Fw_agg.Combine.aggregate_of state))
         (Fw_agg.Aggregate.to_string agg));
    t.items.(j) <- items
  done;
  t

let weight t =
  let w = ref (48 + (64 * t.len)) in
  for i = 0 to t.len - 1 do
    w := !w + Bincodec.slot_weight t.cols (slot t i)
  done;
  !w
