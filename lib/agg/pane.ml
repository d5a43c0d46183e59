module Store = Fw_spill.Store

type t = {
  agg : Aggregate.t;
  store : Combine.state Store.t;
  (* lifetime counters (not reset by [clear]) for observability *)
  mutable adds : int;
  mutable merges : int;
}

let create ?pool agg =
  { agg; store = Store.create ?pool ~name:"pane" Bincodec.state_codec;
    adds = 0; merges = 0 }

let aggregate t = t.agg

let add t ~key v =
  t.adds <- t.adds + 1;
  Store.update t.store key (function
    | None -> Combine.of_value t.agg v
    | Some st -> Combine.add st v)

(* Columnar entry point: fold a run of events given as parallel key /
   value columns and a selection-index window.  Element order and
   per-element store operations are identical to repeated [add] calls,
   so the result — and the lifetime counter — is bit-for-bit the same;
   only the per-call overhead is amortized. *)
let add_run t ~keys ~values ~sel ~lo ~hi =
  for i = lo to hi - 1 do
    let j = sel.(i) in
    let key : string = keys.(j) in
    let v = values.(j) in
    Store.update t.store key (function
      | None -> Combine.of_value t.agg v
      | Some st -> Combine.add st v)
  done;
  t.adds <- t.adds + (hi - lo)

let merge t ~key state =
  t.merges <- t.merges + 1;
  Store.update t.store key (function
    | None -> state
    | Some st -> Combine.merge st state)

let find t key = Store.find t.store key

(* One probe: a pooled pane faults the entry in (if spilled) and drops
   it from the table in the same bucket walk. *)
let take t key = Store.take t.store key (fun _ -> None)

let iter f t = Store.iter f t.store
let fold f t acc = Store.fold f t.store acc
let size t = Store.length t.store
let is_empty t = Store.is_empty t.store
let clear t = Store.clear t.store
let release t = Store.release t.store
let adds t = t.adds
let merges t = t.merges

(* --- snapshot support ---------------------------------------------- *)

(* The store's image (key-sorted, through the spill codec), then the
   lifetime counters. *)
let write b t =
  Store.write b t.store;
  Fw_spill.Bin.w_i64 b t.adds;
  Fw_spill.Bin.w_i64 b t.merges

let read t r =
  Store.read (fun _ _ -> ()) t.store r;
  t.adds <- Fw_spill.Bin.r_i64 r;
  t.merges <- Fw_spill.Bin.r_i64 r
