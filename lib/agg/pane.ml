module Store = Fw_spill.Store
module Cols = Combine.Cols

(* Each key's state lives in a one-slot accumulator column ({!Cols}),
   updated in place through {!Store.access}: a fold allocates no state
   and stores no pointer, and resident and budgeted panes share the one
   path.  The slot's codec writes the bytes and weight of the state it
   holds, so records and images are those of a pane of states. *)
type t = {
  agg : Aggregate.t;
  store : Cols.t Store.t;
  init : unit -> Cols.t;  (* a key's fresh slot, raising [fresh] *)
  mutable fresh : bool;  (* the last access created its slot *)
  (* lifetime counters (not reset by [clear]) for observability *)
  mutable adds : int;
  mutable merges : int;
}

let create ?pool agg =
  let rec t =
    {
      agg;
      store = Store.create ?pool ~name:"pane" (Bincodec.slot_codec agg);
      init =
        (fun () ->
          t.fresh <- true;
          Cols.create agg 1);
      fresh = false;
      adds = 0;
      merges = 0;
    }
  in
  t

let aggregate t = t.agg

let add_value t key v =
  let c = Store.access t.store key ~init:t.init in
  if t.fresh then begin
    t.fresh <- false;
    Cols.of_value c 0 v
  end
  else Cols.add c 0 v;
  Store.commit t.store

let add t ~key v =
  t.adds <- t.adds + 1;
  add_value t key v

(* Columnar entry point: fold a run of events given as parallel key /
   value columns and a selection-index window.  Element order and
   per-element store operations are identical to repeated [add] calls,
   so the result — and the lifetime counter — is bit-for-bit the same;
   only the per-call overhead is amortized. *)
let add_run t ~keys ~values ~sel ~lo ~hi =
  for i = lo to hi - 1 do
    let j = sel.(i) in
    add_value t keys.(j) values.(j)
  done;
  t.adds <- t.adds + (hi - lo)

let merge t ~key state =
  if Combine.aggregate_of state <> t.agg then
    invalid_arg "Pane.merge: mismatched aggregate states";
  t.merges <- t.merges + 1;
  let c = Store.access t.store key ~init:t.init in
  if t.fresh then begin
    t.fresh <- false;
    Cols.set c 0 state
  end
  else Cols.merge c 0 state;
  Store.commit t.store

let state c = Cols.get c 0

let take t key =
  match Store.find t.store key with
  | None -> None
  | Some c ->
      Store.remove t.store key;
      Some (state c)

let iter f t = Store.iter (fun key c -> f key (state c)) t.store
let fold f t acc = Store.fold (fun key c acc -> f key (state c) acc) t.store acc
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
