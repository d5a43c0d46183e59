(* Binary encoders for aggregate state: the store codecs of the
   combine and sliding-queue families.  The out-of-core state store
   ({!Fw_spill.Store}) serializes evicted per-key entries with them, so
   a spilled state faults back in bit-identical, and engine images
   write the same stores through them. *)

module Bin = Fw_spill.Bin

let corrupt = Bin.corrupt

(* --- aggregate state ----------------------------------------------- *)

(* One writer per state family, shared by the state and column
   encoders, so the layout is written down once. *)
let w_min b m =
  Bin.w_u8 b 0;
  Bin.w_float b m

let w_max b m =
  Bin.w_u8 b 1;
  Bin.w_float b m

let w_count b n =
  Bin.w_u8 b 2;
  Bin.w_i64 b n

let w_sum b s =
  Bin.w_u8 b 3;
  Bin.w_float b s

let w_avg b ~sum ~count =
  Bin.w_u8 b 4;
  Bin.w_float b sum;
  Bin.w_i64 b count

let w_stdev b ~count ~mean ~m2 =
  Bin.w_u8 b 5;
  Bin.w_i64 b count;
  Bin.w_float b mean;
  Bin.w_float b m2

let w_median b vs =
  Bin.w_u8 b 6;
  Bin.w_list b Bin.w_float vs

let w_state b st =
  match Combine.view st with
  | Combine.V_min m -> w_min b m
  | Combine.V_max m -> w_max b m
  | Combine.V_count n -> w_count b n
  | Combine.V_sum s -> w_sum b s
  | Combine.V_avg { sum; count } -> w_avg b ~sum ~count
  | Combine.V_stdev { count; mean; m2 } -> w_stdev b ~count ~mean ~m2
  | Combine.V_median vs -> w_median b vs

(* [w_state b (Combine.Cols.get c i)] without building the state. *)
let w_slot b (c : Combine.Cols.t) i =
  match c with
  | C_min a -> w_min b a.(i)
  | C_max a -> w_max b a.(i)
  | C_count a -> w_count b a.(i)
  | C_sum a -> w_sum b a.(i)
  | C_avg { sum; count } -> w_avg b ~sum:sum.(i) ~count:count.(i)
  | C_stdev { count; mean; m2 } ->
      w_stdev b ~count:count.(i) ~mean:mean.(i) ~m2:m2.(i)
  | C_median a -> w_median b a.(i)

let r_state r =
  let view =
    match Bin.r_u8 r with
    | 0 -> Combine.V_min (Bin.r_float r)
    | 1 -> Combine.V_max (Bin.r_float r)
    | 2 -> Combine.V_count (Bin.r_i64 r)
    | 3 -> Combine.V_sum (Bin.r_float r)
    | 4 ->
        let sum = Bin.r_float r in
        let count = Bin.r_i64 r in
        Combine.V_avg { sum; count }
    | 5 ->
        let count = Bin.r_i64 r in
        let mean = Bin.r_float r in
        let m2 = Bin.r_float r in
        Combine.V_stdev { count; mean; m2 }
    | 6 -> Combine.V_median (Bin.r_list r Bin.r_float)
    | tag -> corrupt "unknown aggregate state tag %d" tag
  in
  try Combine.of_view view
  with Invalid_argument m -> corrupt "invalid aggregate state: %s" m

(* --- sliding queue -------------------------------------------------- *)

let w_xentry b (e : Swag.xentry) =
  Bin.w_i64 b e.Swag.x_idx;
  w_state b e.Swag.x_state

let r_xentry r =
  let x_idx = Bin.r_i64 r in
  let x_state = r_state r in
  { Swag.x_idx; x_state }

let w_swag b (x : Swag.export) =
  (match x.Swag.x_repr with
  | Swag.X_two_stacks { xfront; xback; xback_acc } ->
      Bin.w_u8 b 0;
      Bin.w_list b w_xentry xfront;
      Bin.w_list b w_xentry xback;
      Bin.w_option b w_state xback_acc
  | Swag.X_subtractive { xentries; xacc } ->
      Bin.w_u8 b 1;
      Bin.w_list b w_xentry xentries;
      Bin.w_option b w_state xacc);
  Bin.w_i64 b x.Swag.x_evicted;
  Bin.w_i64 b x.Swag.x_flips;
  Bin.w_i64 b x.Swag.x_merges

let r_swag r =
  let x_repr =
    match Bin.r_u8 r with
    | 0 ->
        let xfront = Bin.r_list r r_xentry in
        let xback = Bin.r_list r r_xentry in
        let xback_acc = Bin.r_option r r_state in
        Swag.X_two_stacks { xfront; xback; xback_acc }
    | 1 ->
        let xentries = Bin.r_list r r_xentry in
        let xacc = Bin.r_option r r_state in
        Swag.X_subtractive { xentries; xacc }
    | tag -> corrupt "unknown sliding-queue representation tag %d" tag
  in
  let x_evicted = Bin.r_i64 r in
  let x_flips = Bin.r_i64 r in
  let x_merges = Bin.r_i64 r in
  { Swag.x_repr; x_evicted; x_flips; x_merges }

(* --- spill-store codecs --------------------------------------------- *)

(* State-kind tag bytes written into every spill record — one per
   spillable state family, so a misrouted record is rejected at
   fault-in.  Tags 2–4 (window pending rings, count-window trackers,
   open sessions) are claimed by {!Fw_engine.Stream_exec}'s private
   codecs. *)
let kind_combine = 0
let kind_swag = 1
let kind_win = 2
let kind_cwin = 3
let kind_session = 4

(* Resident-weight estimates, in bytes.  They drive eviction accounting
   only — never results — so cheap approximations of the boxed heap
   size are enough.  A median keeps its full value list; everything
   else is a small constant-size record. *)
let state_weight st =
  match Combine.view st with
  | Combine.V_median vs -> 48 + (24 * List.length vs)
  | Combine.V_min _ | Combine.V_max _ | Combine.V_count _ | Combine.V_sum _
  | Combine.V_avg _ | Combine.V_stdev _ ->
      56

(* [state_weight (Combine.Cols.get c i)] without building the state. *)
let slot_weight (c : Combine.Cols.t) i =
  match c with
  | C_median a -> 48 + (24 * List.length a.(i))
  | C_min _ | C_max _ | C_count _ | C_sum _ | C_avg _ | C_stdev _ -> 56

let swag_weight q = 128 + (72 * Swag.length q)

let state_codec : Combine.state Fw_spill.Store.codec =
  {
    Fw_spill.Store.kind = kind_combine;
    enc = w_state;
    dec = r_state;
    weight = state_weight;
  }

(* A one-slot {!Combine.Cols} holding one key's state: the bytes,
   weight and kind of {!state_codec} on the state the slot holds, so a
   store can switch between the two without a byte of its records or
   images changing.  Decoding checks the state's aggregate. *)
let slot_codec agg : Combine.Cols.t Fw_spill.Store.codec =
  {
    Fw_spill.Store.kind = kind_combine;
    enc = (fun b c -> w_slot b c 0);
    dec =
      (fun r ->
        let st = r_state r in
        let c = Combine.Cols.create agg 1 in
        (try Combine.Cols.set c 0 st
         with Invalid_argument _ ->
           corrupt "a %s state where a %s one was expected"
             (Aggregate.to_string (Combine.aggregate_of st))
             (Aggregate.to_string agg));
        c);
    weight = (fun c -> slot_weight c 0);
  }

let swag_codec agg : Swag.t Fw_spill.Store.codec =
  {
    Fw_spill.Store.kind = kind_swag;
    enc = (fun b q -> w_swag b (Swag.export q));
    dec = (fun r -> Swag.import agg (r_swag r));
    weight = swag_weight;
  }
