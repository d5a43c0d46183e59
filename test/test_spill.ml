(* Out-of-core state store (Fw_spill): store semantics on both
   backends, bit-exact eviction/fault-in round trips for every
   spillable state kind, compaction, corrupt/truncated spill-file fault
   injection, pool accounting, and budget-0 engine equivalence across
   window families (exercising the engine's private win/cwin/session
   codecs end to end). *)
open Helpers
module Bin = Fw_spill.Bin
module File = Fw_spill.File
module Pool = Fw_spill.Pool
module Store = Fw_spill.Store
module Bincodec = Fw_agg.Bincodec
module Combine = Fw_agg.Combine
module Swag = Fw_agg.Swag
module Aggregate = Fw_agg.Aggregate
module Window = Fw_window.Window
module Plan = Fw_plan.Plan
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Event = Fw_engine.Event

let ev t k v = Event.make ~time:t ~key:k ~value:v
let bits = Int64.bits_of_float

let with_pool ?(budget = 0) f =
  let pool = Pool.create ~budget () in
  Fun.protect ~finally:(fun () -> Pool.close pool) (fun () -> f pool)

(* Adversarial floats: signed zeros, subnormals, extremes, last-bit
   neighbours — any codec shortcut (printf, truncation) fails these. *)
let nasty =
  [
    0.0;
    -0.0;
    4.9e-324;
    1e-308;
    1.7976931348623157e308;
    -1e308;
    1e8 +. 1e-8;
    Float.pred 1.0;
    Float.succ 1.0;
    3.141592653589793;
  ]

let eq_state a b =
  let eq_view a b =
    match (a, b) with
    | Combine.V_min x, Combine.V_min y | Combine.V_max x, Combine.V_max y
    | Combine.V_sum x, Combine.V_sum y ->
        bits x = bits y
    | Combine.V_count n, Combine.V_count m -> n = m
    | ( Combine.V_avg { sum = s1; count = c1 },
        Combine.V_avg { sum = s2; count = c2 } ) ->
        bits s1 = bits s2 && c1 = c2
    | ( Combine.V_stdev { count = c1; mean = u1; m2 = q1 },
        Combine.V_stdev { count = c2; mean = u2; m2 = q2 } ) ->
        c1 = c2 && bits u1 = bits u2 && bits q1 = bits q2
    | Combine.V_median xs, Combine.V_median ys ->
        List.length xs = List.length ys
        && List.for_all2 (fun x y -> bits x = bits y) xs ys
    | _ -> false
  in
  eq_view (Combine.view a) (Combine.view b)

let state_of agg vs =
  List.fold_left Combine.add (Combine.identity agg) vs

(* --- store semantics ------------------------------------------------- *)

let store_semantics_on mk_store () =
  let s = mk_store () in
  check_bool "fresh store empty" true (Store.is_empty s);
  Store.set s "a" (state_of Aggregate.Sum [ 1.0; 2.0 ]);
  Store.set s "b" (state_of Aggregate.Sum [ 3.0 ]);
  check_int "two entries" 2 (Store.length s);
  (match Store.find s "a" with
  | Some st ->
      check_bool "find returns the stored state" true
        (eq_state st (state_of Aggregate.Sum [ 1.0; 2.0 ]))
  | None -> Alcotest.fail "a missing");
  check_bool "absent key" true (Store.find s "zz" = None);
  let st =
    Store.access s "a" ~init:(fun () ->
        Alcotest.fail "access made a value for a live key")
  in
  Store.commit s;
  check_bool "access returns the stored state" true
    (eq_state st (state_of Aggregate.Sum [ 1.0; 2.0 ]));
  let st = Store.access s "c" ~init:(fun () -> state_of Aggregate.Sum [ 7.0 ]) in
  Store.commit s;
  check_bool "access returns the value it made" true
    (eq_state st (state_of Aggregate.Sum [ 7.0 ]));
  check_int "access inserted" 3 (Store.length s);
  let total =
    Store.fold (fun _ st acc -> acc +. Combine.finalize st) s 0.0
  in
  check_bool "fold sees every entry" true (bits total = bits 13.0);
  let visited = ref 0 in
  Store.iter (fun _ _ -> incr visited) s;
  check_int "iter visits every entry" 3 !visited;
  Store.remove s "b";
  check_int "remove drops" 2 (Store.length s);
  check_bool "removed key gone" true (Store.find s "b" = None);
  ignore (Store.access s "d" ~init:(fun () -> Combine.identity Aggregate.Sum));
  check_int "access created the entry" 3 (Store.length s);
  Store.remove s "d";
  check_int "remove closed the access and dropped the entry" 2
    (Store.length s);
  Store.clear s;
  check_bool "clear empties" true (Store.is_empty s)

let test_store_semantics_resident () =
  store_semantics_on
    (fun () -> Store.create ~name:"t" Bincodec.state_codec)
    ()

let test_store_semantics_budgeted () =
  with_pool ~budget:0 (fun pool ->
      store_semantics_on
        (fun () -> Store.create ~pool ~name:"t" Bincodec.state_codec)
        ();
      (* a remove closes the access: no commit may follow it *)
      let s = Store.create ~pool ~name:"closed" Bincodec.state_codec in
      ignore (Store.access s "k" ~init:(fun () -> Combine.identity Aggregate.Sum));
      Store.remove s "k";
      match Store.commit s with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "commit accepted after remove closed the access")

(* --- store model: every operation against a map ---------------------- *)

module Smap = Map.Make (String)

(* Values are [int ref]s so [access] and [iter] can mutate in place. *)
let int_codec =
  {
    Store.kind = 7;
    enc = (fun b r -> Bin.w_i64 b !r);
    dec = (fun r -> ref (Bin.r_i64 r));
    weight = (fun _ -> 24);
  }

type store_op =
  | Op_access of int * int * bool  (* [true]: commit, [false]: remove *)
  | Op_set of int * int
  | Op_find of int
  | Op_remove of int
  | Op_iter
  | Op_fold
  | Op_length
  | Op_clear
  | Op_image

let print_store_op = function
  | Op_access (k, d, commit) ->
      Printf.sprintf "access k%d %+d, %s" k d
        (if commit then "commit" else "remove")
  | Op_set (k, v) -> Printf.sprintf "set k%d %d" k v
  | Op_find k -> Printf.sprintf "find k%d" k
  | Op_remove k -> Printf.sprintf "remove k%d" k
  | Op_iter -> "iter"
  | Op_fold -> "fold"
  | Op_length -> "length"
  | Op_clear -> "clear"
  | Op_image -> "image"

(* Up to 3000 keys and 4000 operations, insert-heavy, so the table
   grows through several resizes before a rare clear resets it. *)
let gen_store_ops =
  QCheck2.Gen.(
    let* n_keys = oneof [ int_range 1 40; int_range 1 3000 ] in
    let key = int_range 0 (n_keys - 1) and d = int_range (-5) 5 in
    let op =
      frequency
        [
          (30, map2 (fun k d -> Op_access (k, d, true)) key d);
          (16, map2 (fun k v -> Op_set (k, v)) key d);
          (8, map (fun k -> Op_find k) key);
          (6, map (fun k -> Op_remove k) key);
          (6, map2 (fun k d -> Op_access (k, d, false)) key d);
          (2, return Op_length);
          (1, oneofl [ Op_iter; Op_fold; Op_image ]);
          (1, map (fun c -> if c = 0 then Op_clear else Op_length) (int_range 0 9));
        ]
    in
    let* n = int_range 0 4000 in
    list_repeat n op)

let print_store_ops ops =
  Printf.sprintf "%d ops: %s" (List.length ops)
    (String.concat "; " (List.map print_store_op ops))

let key_of k = Printf.sprintf "k%d" k

(* The engine's two access sequences: access [key] (made as [ref 0]
   when absent), add [d] in place, then commit or remove.  Whether the
   entry was made, and the value it held before the mutation. *)
let access_then_close s key ~d ~commit =
  let made = ref false in
  let r =
    Store.access s key ~init:(fun () ->
        made := true;
        ref 0)
  in
  let before = !r in
  r := before + d;
  if commit then Store.commit s else Store.remove s key;
  (!made, before)

(* The same effect as {!access_then_close} through the two-probe
   protocol it replaced: [find], then [set] or [remove].  An access of
   an absent key closed by [remove] inserts and drops an entry, which
   can resize the table and so reorder later visits and evictions; the
   two-probe form has no such insertion, so it closes that case by
   access too. *)
let find_then_set_or_remove s key ~d ~commit =
  match Store.find s key with
  | None when not commit -> access_then_close s key ~d ~commit
  | found ->
      let made, before =
        match found with None -> (true, 0) | Some r -> (false, !r)
      in
      if commit then Store.set s key (ref (before + d)) else Store.remove s key;
      (made, before)

(* Run [ops] on [s] and on a map model: whether every observable result
   agreed, and [observe ()] after each operation.  [close] runs
   {!Op_access} (by default the engine's access sequences, on a present
   or an absent key). *)
let run_store_ops ?(close = access_then_close) ~observe s ops =
  let model = ref Smap.empty in
  let value k = Option.map ( ! ) (Store.find s k) in
  let bindings () =
    List.sort compare
      (Store.fold (fun k r acc -> (k, !r) :: acc) s [])
  in
  let same_contents () = bindings () = Smap.bindings !model in
  let step op =
    match op with
    | Op_access (k, d, commit) ->
        let key = key_of k in
        let made, before = close s key ~d ~commit in
        let ok =
          match Smap.find_opt key !model with
          | Some v -> (not made) && before = v
          | None -> made && before = 0
        in
        model :=
          if commit then Smap.add key (before + d) !model
          else Smap.remove key !model;
        ok
    | Op_set (k, v) ->
        Store.set s (key_of k) (ref v);
        model := Smap.add (key_of k) v !model;
        true
    | Op_find k -> value (key_of k) = Smap.find_opt (key_of k) !model
    | Op_remove k ->
        Store.remove s (key_of k);
        model := Smap.remove (key_of k) !model;
        true
    | Op_iter ->
        let seen = ref [] in
        Store.iter
          (fun k r ->
            seen := (k, !r) :: !seen;
            r := !r + 1)
          s;
        model := Smap.map succ !model;
        List.sort compare !seen = Smap.bindings (Smap.map pred !model)
        && same_contents ()
    | Op_fold -> same_contents ()
    | Op_length -> Store.length s = Smap.cardinal !model
    | Op_clear ->
        Store.clear s;
        model := Smap.empty;
        Store.is_empty s
    | Op_image ->
        let b = Buffer.create 256 in
        Store.write b s;
        let img = Buffer.contents b in
        let expect = Buffer.create 256 in
        Bin.w_list expect
          (fun b (k, v) ->
            Bin.w_string b k;
            Bin.w_i64 b v)
          (Smap.bindings !model);
        let loaded = ref [] in
        Store.read (fun k r -> loaded := (k, !r) :: !loaded) s (Bin.reader img);
        String.equal img (Buffer.contents expect)
        && List.rev !loaded = Smap.bindings !model
        && same_contents ()
  in
  let ok = ref true and seen = ref [] in
  List.iter
    (fun op ->
      if !ok then begin
        ok := step op;
        seen := observe () :: !seen
      end)
    ops;
  ( !ok && same_contents () && Store.length s = Smap.cardinal !model,
    List.rev !seen )

(* ... and after every operation the spill ring holds exactly the
   spilled entries, in file order, their lengths summing to the file's
   live bytes. *)
let store_agrees_with_model s ops =
  let ok, rings =
    run_store_ops ~observe:(fun () -> Store.check_ring s) s ops
  in
  ok && List.for_all Result.is_ok rings

let prop_store_model =
  qtest ~count:25 "store = map model (resident, budget 0, small budget)"
    gen_store_ops print_store_ops (fun ops ->
      store_agrees_with_model (Store.create ~name:"model" int_codec) ops
      && with_pool ~budget:0 (fun pool ->
             store_agrees_with_model
               (Store.create ~pool ~name:"model" int_codec)
               ops)
      && with_pool ~budget:512 (fun pool ->
             store_agrees_with_model
               (Store.create ~pool ~name:"model" int_codec)
               ops))

let pool_figures pool () =
  ( Pool.resident_bytes pool,
    Pool.resident_keys pool,
    Pool.disk_bytes pool,
    Pool.evictions pool,
    Pool.faults pool )

(* A budgeted access closed by commit or remove leaves the pool's
   accounts, its spill file and its eviction and fault counts exactly
   as [find] then [set] or [remove] would, after every operation. *)
let prop_access_accounts =
  qtest ~count:25 "store access/commit = find + set/remove in pool accounts"
    gen_store_ops print_store_ops (fun ops ->
      List.for_all
        (fun budget ->
          let run close =
            with_pool ~budget (fun pool ->
                run_store_ops ~close ~observe:(pool_figures pool)
                  (Store.create ~pool ~name:"access" int_codec)
                  ops)
          in
          let ok1, one = run access_then_close in
          let ok2, two = run find_then_set_or_remove in
          ok1 && ok2 && one = two)
        [ 0; 512 ])

(* The table visits entries in the order of a generic stdlib
   [Hashtbl] fed the same insert/remove/reset history (the budgeted
   backend in the reverse of it): pane rolls emit in this order. *)
let test_store_visit_order () =
  let rng = Fw_util.Prng.create 5 in
  let resident = Store.create ~name:"order" int_codec in
  let reference = Hashtbl.create ~random:false 16 in
  with_pool ~budget:512 (fun pool ->
      let budgeted = Store.create ~pool ~name:"order" int_codec in
      let both f = f resident; f budgeted in
      for step = 1 to 20000 do
        let key = key_of (Fw_util.Prng.int rng (if step < 12000 then 3000 else 200)) in
        (match Fw_util.Prng.int rng 10 with
        | 0 | 1 ->
            both (fun s -> Store.remove s key);
            Hashtbl.remove reference key
        | 2 ->
            both (fun s ->
                ignore (Store.access s key ~init:(fun () -> ref step));
                Store.remove s key);
            Hashtbl.remove reference key
        | 3 ->
            both (fun s ->
                let r = Store.access s key ~init:(fun () -> ref 0) in
                r := step;
                Store.commit s);
            Hashtbl.replace reference key step
        | 4 ->
            both (fun s ->
                ignore (Store.access s key ~init:(fun () -> ref step));
                Store.commit s);
            if not (Hashtbl.mem reference key) then Hashtbl.replace reference key step
        | _ ->
            both (fun s -> Store.set s key (ref step));
            Hashtbl.replace reference key step);
        if step = 9000 || step = 15000 then begin
          both Store.clear;
          Hashtbl.reset reference
        end;
        if step mod 1000 = 0 then begin
          let expect = Hashtbl.fold (fun k _ acc -> k :: acc) reference [] in
          let visited s =
            let acc = ref [] in
            Store.iter (fun k _ -> acc := k :: !acc) s;
            !acc
          in
          Alcotest.(check (list string))
            (Printf.sprintf "resident iter order, step %d" step)
            expect (visited resident);
          Alcotest.(check (list string))
            (Printf.sprintf "resident fold order, step %d" step)
            expect (Store.fold (fun k _ acc -> k :: acc) resident []);
          Alcotest.(check (list string))
            (Printf.sprintf "budgeted iter order, step %d" step)
            (List.rev expect) (visited budgeted)
        end
      done)

(* The table's C hash is [Hashtbl.hash] on any string: the visit order
   above rests on it. *)
let prop_store_hash =
  qtest ~count:500 "store hash = Hashtbl.hash"
    QCheck2.Gen.(
      string_size ~gen:char
        (frequency [ (1, return 0); (6, int_range 1 300) ]))
    (Printf.sprintf "%S")
    (fun key -> Store.hash key = Hashtbl.hash key)

(* --- pane slots vs the boxed fold ------------------------------------- *)

type pane_op = P_run of (int * float) list | P_merge of int * float list

(* Values with every kind of float bit pattern: nans with assorted
   payloads and signs, infinities, signed zeros, subnormals. *)
let gen_bits_float =
  QCheck2.Gen.(
    frequency
      [
        (3, oneofl nasty);
        (2, map Int64.float_of_bits ui64);
        ( 2,
          map2
            (fun sign payload ->
              Int64.float_of_bits
                (Int64.logor
                   (if sign then Int64.min_int else 0L)
                   (Int64.logor 0x7FF0000000000000L (Int64.of_int payload))))
            bool (int_range 1 0xFFFFF) );
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        (2, map (fun n -> float_of_int n /. 4.0) (int_range (-400) 400));
      ])

let gen_pane_ops =
  QCheck2.Gen.(
    let key = int_range 0 11 in
    let* agg = oneofl Aggregate.all in
    let* ops =
      list_size (int_range 0 30)
        (frequency
           [
             (4, map (fun run -> P_run run)
                   (list_size (int_range 0 40) (pair key gen_bits_float)));
             (1, map2 (fun k vs -> P_merge (k, vs)) key
                   (list_size (int_range 1 4) gen_bits_float));
           ])
    in
    let* drained = list_size (int_range 0 6) key in
    return (agg, ops, drained))

let print_pane_ops (agg, ops, drained) =
  let show v =
    if Float.is_nan v then Printf.sprintf "nan:%Lx" (bits v)
    else Printf.sprintf "%h" v
  in
  let floats vs = String.concat "," (List.map show vs) in
  Printf.sprintf "%s: %s; take %s" (Aggregate.to_string agg)
    (String.concat "; "
       (List.map
          (function
            | P_run run ->
                "run "
                ^ String.concat ","
                    (List.map (fun (k, v) -> Printf.sprintf "k%d=%s" k (show v)) run)
            | P_merge (k, vs) -> Printf.sprintf "merge k%d [%s]" k (floats vs))
          ops))
    (String.concat "," (List.map string_of_int drained))

(* A pane fed through [add_run] and [merge], then drained by [take] and
   [iter], holds exactly what the boxed [Combine.of_value]/
   [Combine.add]/[Combine.merge] fold holds in a store of states driven
   the same way: equal states, equal [Bincodec] bytes (nan payloads
   included) and equal images.  Under budget-0 pools the two also leave
   equal evictions, faults, disk bytes and largest entry, which their
   codecs' weights and records decide. *)
let prop_pane_slots_boxed =
  let boxed_codec =
    {
      Store.kind = Bincodec.kind_combine;
      enc = (fun b r -> Bincodec.w_state b !r);
      dec = (fun r -> ref (Bincodec.r_state r));
      weight = (fun r -> Bincodec.state_weight !r);
    }
  in
  let bytes st =
    let b = Buffer.create 16 in
    Bincodec.w_state b st;
    Buffer.contents b
  in
  let same a b =
    List.length a = List.length b
    && List.for_all2
         (fun (k1, s1) (k2, s2) ->
           match (s1, s2) with
           | Some s1, Some s2 ->
               String.equal k1 k2 && eq_state s1 s2
               && String.equal (bytes s1) (bytes s2)
           | None, None -> String.equal k1 k2
           | Some _, None | None, Some _ -> false)
         a b
  in
  (* Each side: feed the ops, then (its image, its drained states). *)
  let columns run =
    let keys = Array.of_list (List.map (fun (k, _) -> key_of k) run)
    and values = Array.of_list (List.map snd run) in
    (* a selection out of column order *)
    (keys, values, Array.init (Array.length keys) (fun i -> Array.length keys - 1 - i))
  in
  let merged agg vs =
    List.fold_left Combine.add (Combine.of_value agg (List.hd vs)) (List.tl vs)
  in
  let drain take iter drained =
    let taken = List.map (fun k -> (key_of k, take (key_of k))) drained in
    let rest = ref [] in
    iter (fun k st -> rest := (k, Some st) :: !rest);
    taken @ List.rev !rest
  in
  let pane_side ?pool (agg, ops, drained) =
    let pane = Fw_agg.Pane.create ?pool agg in
    List.iter
      (function
        | P_run run ->
            let keys, values, sel = columns run in
            Fw_agg.Pane.add_run pane ~keys ~values ~sel ~lo:0
              ~hi:(Array.length sel)
        | P_merge (k, vs) -> Fw_agg.Pane.merge pane ~key:(key_of k) (merged agg vs))
      ops;
    let image = Buffer.create 256 in
    Fw_agg.Pane.write image pane;
    let image = Buffer.contents image in
    (* the store image, without the pane's two counters *)
    ( String.sub image 0 (String.length image - 16),
      drain (Fw_agg.Pane.take pane) (fun f -> Fw_agg.Pane.iter f pane) drained )
  in
  let boxed_side ?pool (agg, ops, drained) =
    let s = Store.create ?pool ~name:"pane" boxed_codec in
    let made = ref false in
    let fold key f =
      let r =
        Store.access s key ~init:(fun () ->
            made := true;
            ref (Combine.identity agg))
      in
      r := f !made !r;
      made := false;
      Store.commit s
    in
    List.iter
      (function
        | P_run run ->
            let keys, values, sel = columns run in
            Array.iter
              (fun j ->
                fold keys.(j) (fun fresh st ->
                    if fresh then Combine.of_value agg values.(j)
                    else Combine.add st values.(j)))
              sel
        | P_merge (k, vs) ->
            let st = merged agg vs in
            fold (key_of k) (fun fresh acc ->
                if fresh then st else Combine.merge acc st))
      ops;
    let image = Buffer.create 256 in
    Store.write image s;
    ( Buffer.contents image,
      drain
        (fun key ->
          match Store.find s key with
          | None -> None
          | Some r ->
              Store.remove s key;
              Some !r)
        (fun f -> Store.iter (fun k r -> f k !r) s)
        drained )
  in
  let agree (i1, d1) (i2, d2) = String.equal i1 i2 && same d1 d2 in
  let figures pool =
    ( Pool.evictions pool,
      Pool.faults pool,
      Pool.disk_bytes pool,
      Pool.max_entry_bytes pool,
      Pool.resident_bytes pool )
  in
  let on_pool (side : ?pool:Pool.t -> _ -> _) case =
    with_pool ~budget:0 (fun pool ->
        let r = side ~pool case in
        (r, figures pool))
  in
  qtest ~count:200 "pane slots = boxed fold: states, bytes, weights"
    gen_pane_ops print_pane_ops (fun case ->
      agree (pane_side case) (boxed_side case)
      &&
      let p, pf = on_pool pane_side case and b, bf = on_pool boxed_side case in
      agree p b && pf = bf
      &&
      (* a budgeted store iterates in the reverse of the resident order *)
      let by_key (i, d) =
        (i, List.stable_sort (fun (k1, _) (k2, _) -> String.compare k1 k2) d)
      in
      agree (by_key p) (by_key (pane_side case)))

(* --- eviction / fault-in bit-identity -------------------------------- *)

let test_evict_fault_bit_identity () =
  (* budget 0: every entry is evicted as soon as it is unpinned, so
     every find round-trips through the spill file *)
  with_pool ~budget:0 (fun pool ->
      let s = Store.create ~pool ~name:"states" Bincodec.state_codec in
      let cases =
        List.concat_map
          (fun agg ->
            List.mapi
              (fun i v ->
                ( Printf.sprintf "%s-%d" (Aggregate.to_string agg) i,
                  state_of agg [ v; v *. 0.5; -.v ] ))
              nasty)
          Aggregate.all
      in
      List.iter (fun (k, st) -> Store.set s k st) cases;
      check_bool "entries were evicted" true (Pool.evictions pool > 0);
      check_bool "resident total at budget 0 is zero" true
        (Pool.resident_bytes pool = 0);
      List.iter
        (fun (k, st) ->
          match Store.find s k with
          | Some st' ->
              if not (eq_state st st') then
                Alcotest.failf "state %s did not round-trip bit-identically" k
          | None -> Alcotest.failf "state %s lost by eviction" k)
        cases;
      check_bool "fault-ins happened" true (Pool.faults pool > 0))

let test_swag_round_trip_through_store () =
  (* both queue representations: subtractive (SUM) and two-stacks
     (MAX), with enough pushes/evictions to split front and back *)
  with_pool ~budget:0 (fun pool ->
      List.iter
        (fun agg ->
          let name = "swag-" ^ Aggregate.to_string agg in
          let s = Store.create ~pool ~name (Bincodec.swag_codec agg) in
          let q = Swag.create agg in
          List.iteri (fun i v -> Swag.push q ~idx:i (state_of agg [ v ])) nasty;
          Swag.evict_below q 3;
          let expect = Swag.query q in
          let counters = (Swag.evicted q, Swag.flips q, Swag.merges q) in
          Store.set s "k" q;
          (match Store.find s "k" with
          | None -> Alcotest.fail "queue lost by eviction"
          | Some q' ->
              (match (expect, Swag.query q') with
              | Some a, Some b ->
                  check_bool
                    (Printf.sprintf "%s query bit-identical after fault-in"
                       (Aggregate.to_string agg))
                    true
                    (bits (Combine.finalize a) = bits (Combine.finalize b))
              | None, None -> ()
              | _ -> Alcotest.fail "query presence changed");
              check_bool "lifetime counters preserved" true
                (counters = (Swag.evicted q', Swag.flips q', Swag.merges q')));
          Store.clear s)
        [ Aggregate.Sum; Aggregate.Max; Aggregate.Stdev; Aggregate.Median ])

(* --- direct codec round-trips ---------------------------------------- *)

let test_codec_round_trips () =
  List.iter
    (fun agg ->
      List.iter
        (fun v ->
          let st = state_of agg [ v; 1.0; -.v ] in
          let b = Buffer.create 64 in
          Bincodec.w_state b st;
          let st' = Bincodec.r_state (Bin.reader (Buffer.contents b)) in
          if not (eq_state st st') then
            Alcotest.failf "w_state/r_state not bit-exact for %s"
              (Aggregate.to_string agg))
        nasty)
    Aggregate.all;
  (* swag export round trip, both representations *)
  List.iter
    (fun agg ->
      let q = Swag.create agg in
      List.iteri (fun i v -> Swag.push q ~idx:i (state_of agg [ v ])) nasty;
      Swag.evict_below q 2;
      let x = Swag.export q in
      let b = Buffer.create 64 in
      Bincodec.w_swag b x;
      let x' = Bincodec.r_swag (Bin.reader (Buffer.contents b)) in
      let q' = Swag.import agg x' in
      check_bool
        (Printf.sprintf "%s export round-trips" (Aggregate.to_string agg))
        true
        (match (Swag.query q, Swag.query q') with
        | Some a, Some b -> bits (Combine.finalize a) = bits (Combine.finalize b)
        | None, None -> true
        | _ -> false))
    [ Aggregate.Sum; Aggregate.Min; Aggregate.Avg; Aggregate.Median ];
  (* a truncated state payload is a typed decode error, not garbage *)
  let b = Buffer.create 16 in
  Bincodec.w_state b (state_of Aggregate.Stdev [ 1.0; 2.0 ]);
  let img = Buffer.contents b in
  (match
     Bincodec.r_state (Bin.reader (String.sub img 0 (String.length img - 3)))
   with
  | exception Bin.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated state decoded")

(* --- pool accounting and enforcement --------------------------------- *)

let test_pool_bound_enforced () =
  let budget = 2048 in
  with_pool ~budget (fun pool ->
      let s = Store.create ~pool ~name:"bound" Bincodec.state_codec in
      for i = 1 to 2000 do
        Store.set s
          (Printf.sprintf "key-%04d" i)
          (state_of Aggregate.Avg [ float_of_int i; 0.5 ])
      done;
      check_int "no entry lost" 2000 (Store.length s);
      check_bool "resident keys bounded" true
        (Pool.resident_bytes pool <= budget);
      (* the enforced bound: budget plus at most one unpinned entry of
         slack (the entry being inserted before the sweep runs) *)
      check_bool
        (Printf.sprintf "peak %d within budget %d + max entry %d"
           (Pool.peak_resident_bytes pool)
           budget
           (Pool.max_entry_bytes pool))
        true
        (Pool.peak_resident_bytes pool
        <= budget + Pool.max_entry_bytes pool);
      check_bool "spill file holds the cold tail" true
        (Pool.disk_bytes pool > 0))

let test_set_budget_shrink_evicts () =
  with_pool ~budget:1_000_000 (fun pool ->
      let s = Store.create ~pool ~name:"shrink" Bincodec.state_codec in
      for i = 1 to 200 do
        Store.set s (string_of_int i) (state_of Aggregate.Sum [ float_of_int i ])
      done;
      check_bool "everything resident under a large budget" true
        (Pool.resident_bytes pool > 0 && Pool.evictions pool = 0);
      Pool.set_budget pool 0;
      check_int "shrink to 0 evicts everything" 0 (Pool.resident_bytes pool);
      check_bool "entries survive on disk" true
        (Store.find s "137" <> None))

let test_negative_budget_rejected () =
  match Pool.create ~budget:(-1) () with
  | exception Invalid_argument _ -> ()
  | pool ->
      Pool.close pool;
      Alcotest.fail "negative budget accepted"

(* --- compaction ------------------------------------------------------ *)

let test_compaction_bounds_disk () =
  with_pool ~budget:0 (fun pool ->
      let s = Store.create ~pool ~name:"churn" Bincodec.state_codec in
      (* overwrite a small key set thousands of times: every overwrite
         makes the previous spill record garbage, so without compaction
         the file would grow without bound *)
      let st = state_of Aggregate.Median (List.init 40 float_of_int) in
      for round = 1 to 400 do
        for k = 0 to 9 do
          ignore round;
          Store.set s (Printf.sprintf "k%d" k) st
        done
      done;
      let disk = Pool.disk_bytes pool in
      (* 4000 writes of a ~1KB record is ~4MB of appends; compaction
         must keep the live file within a small multiple of the ~10
         live records *)
      check_bool
        (Printf.sprintf "disk bounded by compaction (%d bytes)" disk)
        true
        (disk < 1_000_000);
      List.init 10 (fun k ->
          match Store.find s (Printf.sprintf "k%d" k) with
          | Some st' -> check_bool "entry intact after compaction" true
                          (eq_state st st')
          | None -> Alcotest.fail "entry lost by compaction")
      |> ignore)

(* --- spill-file fault injection -------------------------------------- *)

let spill_file_with_records dir =
  let path = Filename.concat dir "s.spill" in
  let f = File.create path in
  let recs =
    List.map
      (fun (k, v) -> (k, v, File.append f ~kind:7 ~key:k v))
      [ ("alpha", "payload-one"); ("beta", "payload-two"); ("gamma", "p3") ]
  in
  (f, path, recs)

let with_temp_dir f =
  let dir = Filename.temp_file "fwspill" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_file_read_and_scan () =
  with_temp_dir (fun dir ->
      let f, path, recs = spill_file_with_records dir in
      List.iter
        (fun (k, v, (off, len)) ->
          let kind, v' = File.read f ~off ~len ~key:k in
          check_int "kind round-trips" 7 kind;
          check_string "value round-trips" v v')
        recs;
      (* reading under the wrong key is identity fraud, a typed Fault *)
      let _, _, (off0, len0) = List.hd recs in
      (match File.read f ~off:off0 ~len:len0 ~key:"beta" with
      | exception File.Fault msg ->
          check_bool "key mismatch names the key" true
            (Astring_contains.contains msg "beta"
            || Astring_contains.contains msg "alpha")
      | _ -> Alcotest.fail "wrong-key read succeeded");
      File.close f;
      (* offline scan: all three intact *)
      let scan = File.scan path in
      check_int "scan finds every record" 3 (List.length scan.File.records);
      check_int "scan skips nothing" 0 (List.length scan.File.skipped);
      (* flip one payload byte of the middle record: CRC catches it,
         the scan skips that record with a reason and keeps going *)
      let img =
        let ic = open_in_bin path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      in
      let _, _, (off1, _) = List.nth recs 1 in
      let corrupted = Bytes.of_string img in
      Bytes.set corrupted (off1 + 6)
        (Char.chr (Char.code (Bytes.get corrupted (off1 + 6)) lxor 0xff));
      let scan = File.scan_image (Bytes.to_string corrupted) in
      check_int "corrupt record skipped" 1 (List.length scan.File.skipped);
      check_int "other records survive" 2 (List.length scan.File.records);
      check_bool "skip carries a reason" true
        (List.for_all (fun (_, reason) -> reason <> "") scan.File.skipped);
      (* truncate the tail mid-record: the scan ends with a reason
         instead of crashing *)
      let cut = String.sub img 0 (String.length img - 5) in
      let scan = File.scan_image cut in
      check_int "records before the tear survive" 2
        (List.length scan.File.records);
      check_int "torn tail reported" 1 (List.length scan.File.skipped))

let spill_files pool =
  Array.to_list (Sys.readdir (Pool.dir pool))
  |> List.filter (fun f -> Filename.check_suffix f ".spill")
  |> List.map (Filename.concat (Pool.dir pool))

(* The current spill file of the pool's one store: the only spill file,
   or the only non-empty one once a compaction has left its emptied
   target beside it. *)
let spill_path pool =
  let files = spill_files pool in
  match files with
  | [ f ] -> f
  | _ -> (
      match List.filter (fun f -> (Unix.stat f).Unix.st_size > 0) files with
      | [ f ] -> f
      | current ->
          Alcotest.failf "expected one current spill file, found %d non-empty of %d"
            (List.length current) (List.length files))

let test_fault_in_is_typed () =
  (* corrupt the live spill file under a budget-0 store: the next find
     must surface File.Fault (naming the reason), never wrong state *)
  with_pool ~budget:0 (fun pool ->
      let s = Store.create ~pool ~name:"victim" Bincodec.state_codec in
      Store.set s "k" (state_of Aggregate.Sum [ 42.0 ]);
      (* the entry is spilled now, into the file's append tail; evicting
         past one chunk of further records writes it to disk *)
      for i = 1 to 400 do
        Store.set s (Printf.sprintf "filler%d" i) (state_of Aggregate.Sum [ 1.0 ])
      done;
      check_bool "the record reached the disk" true
        ((Unix.stat (spill_path pool)).Unix.st_size > 0);
      (* smash the first bytes of the file: the record at offset 0 *)
      let path = spill_path pool in
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o600 path in
      output_string oc "\xde\xad\xbe\xef\xde\xad\xbe\xef";
      close_out oc;
      match Store.find s "k" with
      | exception File.Fault msg ->
          check_bool "fault names the store" true
            (Astring_contains.contains msg "victim")
      | Some _ -> Alcotest.fail "corrupt record decoded as state"
      | None -> Alcotest.fail "corrupt record read as absence")

(* --- engine equivalence under budget 0, per window family ------------ *)

let run_family_equivalence ?(plan = Plan.naive Aggregate.Avg) ~mode windows
    events =
  let plan = plan windows in
  let horizon = 200 in
  let rows0 = Stream_exec.run ~mode plan ~horizon events in
  with_pool ~budget:0 (fun pool ->
      let rows1 = Stream_exec.run ~mode ~spill:pool plan ~horizon events in
      check_bool "rows byte-identical under budget 0" true (rows1 = rows0);
      check_bool "the run actually spilled" true (Pool.evictions pool > 0))

let family_events =
  List.concat_map
    (fun t ->
      [ ev t "a" (float_of_int t); ev t "b" (float_of_int (t * 7 mod 13)) ])
    (List.init 120 (fun i -> i + 1))

let test_budget0_time_windows () =
  (* pending window maps (kind_win) + panes/swags in incremental mode *)
  run_family_equivalence ~mode:Stream_exec.Naive
    [ Window.make ~range:12 ~slide:4; Window.tumbling 10 ]
    family_events;
  run_family_equivalence ~mode:Stream_exec.Incremental
    [ Window.make ~range:12 ~slide:4; Window.tumbling 10 ]
    family_events

let test_budget0_count_windows () =
  (* per-key ordinal trackers (kind_cwin) *)
  run_family_equivalence ~mode:Stream_exec.Naive
    [ Window.count_hop ~range:8 ~slide:4 ]
    family_events;
  run_family_equivalence ~mode:Stream_exec.Incremental
    [ Window.count_hop ~range:8 ~slide:4 ]
    family_events;
  (* a rewritten plan, whose count factor window feeds the other two:
     an upstream fire forwards into the downstream trackers' stores, of
     the same pool, after its own access is committed *)
  let feeder = Window.count_hop ~range:8 ~slide:4
  and fed = Window.count_hop ~range:16 ~slide:8 in
  let rewritten ws =
    (Fw_plan.Rewrite.optimize Aggregate.Avg ws).Fw_plan.Rewrite.plan
  in
  let plan = rewritten [ feeder; fed ] in
  check_bool "every query window is fed by a count factor window" true
    (List.for_all
       (fun w ->
         match Plan.window_input plan w with
         | `Window (Window.Hop { domain = Window.Count; _ }) -> true
         | `Window _ | `Stream -> false)
       [ feeder; fed ]);
  List.iter
    (fun mode ->
      run_family_equivalence ~plan:rewritten ~mode [ feeder; fed ] family_events)
    [ Stream_exec.Naive; Stream_exec.Incremental ]

let test_budget0_session_windows () =
  (* open-session state (kind_session); sparse stream so sessions
     actually rotate *)
  let sparse =
    List.filter (fun e -> e.Event.time mod 7 < 3) family_events
  in
  run_family_equivalence ~mode:Stream_exec.Naive
    [ Window.session ~gap:2 ]
    sparse;
  run_family_equivalence ~mode:Stream_exec.Incremental
    [ Window.session ~gap:2 ]
    sparse

(* --- pane roll access pattern ------------------------------------------ *)

(* Under a budget-0 pool every store access faults, so the fault count
   of one pane roll is its access count: one per key with a queue plus
   one per key in the open pane, however many boundaries the roll
   crosses.  H4/2 (two panes per instance); each roll is driven by a
   punctuation so no event fold is counted with it. *)
let test_pane_roll_one_access_per_key () =
  let plan = Plan.naive Aggregate.Sum [ Window.make ~range:4 ~slide:2 ] in
  with_pool ~budget:0 (fun pool ->
      let t =
        Stream_exec.create ~mode:Stream_exec.Incremental ~spill:pool plan
      in
      let feed evs = List.iter (Stream_exec.feed t) evs in
      let roll_faults upto =
        let f0 = Pool.faults pool in
        Stream_exec.advance t upto;
        Pool.faults pool - f0
      in
      feed [ ev 0 "a" 1.0; ev 0 "b" 2.0; ev 1 "c" 3.0 ];
      (* seal pane 0: no queue yet, open pane {a, b, c} *)
      check_int "first roll: |P| = 3" 3 (roll_faults 2);
      feed [ ev 2 "a" 4.0; ev 3 "d" 5.0 ];
      (* seal pane 1, fire [0,4): queues {a, b, c}, open pane {a, d} *)
      check_int "single step: |Q| + |P| = 3 + 2" 5 (roll_faults 4);
      feed [ ev 4 "d" 6.0; ev 5 "e" 7.0 ];
      (* seal pane 2, fire [2,6) and drop the drained b, c: queues
         {a, b, c, d}, open pane {d, e} *)
      check_int "single step: |Q| + |P| = 4 + 2" 6 (roll_faults 6);
      feed [ ev 7 "e" 8.0 ];
      (* close crosses seven boundaries: seal pane 3, fire [4,8) and
         [6,10), drain every queue; queues {a, d, e}, open pane {e} *)
      let f0 = Pool.faults pool in
      let rows = Stream_exec.close t ~horizon:20 in
      check_int "multi-pane close: |Q| + |P| = 3 + 1" 4 (Pool.faults pool - f0);
      check_int "rows: [0,4) x4, [2,6) x3, [4,8) x2, [6,10) x1" 10
        (List.length rows))

(* --- checkpoint composition ------------------------------------------ *)

let test_checkpoint_under_budget_byte_identical () =
  let windows = [ Window.make ~range:12 ~slide:4; Window.session ~gap:3 ] in
  let plan = Plan.naive Aggregate.Stdev windows in
  let horizon = 200 in
  let rows0 = Stream_exec.run plan ~horizon family_events in
  let dir = Filename.temp_file "fwsnapspill" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      with_pool ~budget:0 (fun pool ->
          let cp =
            Fw_snap.Checkpoint.create ~dir ~every:17 ~spill:pool plan
          in
          List.iter (Fw_snap.Checkpoint.feed cp) family_events;
          let rows1 = Fw_snap.Checkpoint.close cp ~horizon in
          check_bool "checkpointed spilled rows byte-identical" true
            (rows1 = rows0);
          check_bool "the checkpointed run spilled" true
            (Pool.evictions pool > 0)))

(* A restore that fails on a shared pool hands back everything it
   loaded: no resident bytes, no spill file, no registered store. *)
let test_failed_import_releases_stores () =
  let windows = [ Window.make ~range:12 ~slide:4; Window.session ~gap:3 ] in
  let plan = Plan.naive Aggregate.Stdev windows in
  let exec = Stream_exec.create ~mode:Stream_exec.Incremental plan in
  List.iteri
    (fun i e -> if i < 60 then Stream_exec.feed exec e)
    family_events;
  (* a trailing byte is noticed only after every store has loaded *)
  let image = Stream_exec.export exec ^ "\000" in
  with_pool ~budget:0 (fun pool ->
      (match Stream_exec.import ~spill:pool plan ~rows:[] image with
      | _ -> Alcotest.fail "image with trailing bytes accepted"
      | exception Invalid_argument _ -> ());
      check_bool "the import spilled" true (Pool.evictions pool > 0);
      check_int "no resident bytes" 0 (Pool.resident_bytes pool);
      check_int "no disk bytes" 0 (Pool.disk_bytes pool);
      let dir = Pool.dir pool in
      check_bool "no spill file left" true
        ((not (Sys.file_exists dir)) || Sys.readdir dir = [||]);
      (* a released store is no longer swept: rebalancing an empty
         pool finds nothing to evict *)
      let ev0 = Pool.evictions pool in
      Pool.rebalance pool;
      check_int "no eviction after release" ev0 (Pool.evictions pool))

(* --- engine images are backend-independent ----------------------------- *)

(* A snapshot writes every store as a key-sorted list of (key, spill
   codec payload), so the engine image must not depend on the backend:
   an executor whose entries all sit in spill files (budget 0) exports
   the same bytes as a resident one fed the same input.  Either image,
   restored on the other backend and fed the rest of the stream, must
   then give the same rows, counters and final image.  Time hops
   (aligned and not, per-instance and pane nodes, window-fed under a
   rewrite), count hops and sessions, in both modes. *)
let gen_image_case =
  QCheck2.Gen.(
    let family =
      oneof
        [
          gen_window;
          (let* s = int_range 2 6 in
           let* extra = int_range 1 (s - 1) in
           return (Window.make ~range:(s + extra) ~slide:s));
          gen_count_window;
          map (fun gap -> Window.session ~gap) (int_range 1 4);
        ]
    in
    let* n = int_range 1 3 in
    let* ws = list_repeat n family in
    let* rewrite = bool in
    let* mode = oneofl [ Stream_exec.Naive; Stream_exec.Incremental ] in
    let* agg = oneofl [ Aggregate.Sum; Aggregate.Max; Aggregate.Median ] in
    let* seed = int_range 0 10000 in
    let* cut = int_range 0 60 in
    return (Window.dedup ws, rewrite, mode, agg, seed, cut))

let print_image_case (ws, rewrite, mode, agg, seed, cut) =
  Printf.sprintf "%s %s %s %s seed=%d cut=%d" (print_window_list ws)
    (if rewrite then "rewritten" else "naive")
    (match mode with
    | Stream_exec.Naive -> "Naive"
    | Incremental -> "Incremental")
    (Aggregate.to_string agg) seed cut

let prop_image_backend_independent =
  qtest ~count:120 "engine image: budget 0 = resident, byte for byte"
    gen_image_case print_image_case
    (fun (ws, rewrite, mode, agg, seed, cut) ->
      let plan =
        if rewrite then
          match Fw_plan.Rewrite.optimize agg ws with
          | outcome -> outcome.Fw_plan.Rewrite.plan
          | exception _ -> Plan.naive agg ws
        else Plan.naive agg ws
      in
      let horizon = 60 in
      (* quiet spells of three ticks make sessions rotate *)
      let events =
        List.filter
          (fun e -> e.Event.time mod 9 < 6)
          (Fw_workload.Event_gen.varied (Fw_util.Prng.create seed)
             {
               Fw_workload.Event_gen.default_config with
               keys = [ ""; "a"; "b"; "c" ];
             }
             ~eta_max:3 ~horizon)
      in
      let feed t p =
        List.iter
          (fun e -> if p e.Event.time then Stream_exec.feed t e)
          events
      in
      let rows t = List.init (Stream_exec.row_count t) (Stream_exec.row t) in
      let resident = Stream_exec.create ~mode plan in
      feed resident (fun tm -> tm < cut);
      let image = Stream_exec.export resident in
      let rows_at_cut = rows resident in
      feed resident (fun tm -> tm >= cut);
      let rows_whole = Stream_exec.close resident ~horizon in
      with_pool ~budget:0 (fun pool ->
          let spilled = Stream_exec.create ~mode ~spill:pool plan in
          feed spilled (fun tm -> tm < cut);
          let image' = Stream_exec.export spilled in
          (* restore each image on the other backend *)
          let finish ?spill image =
            let metrics = Metrics.create () in
            let t =
              Stream_exec.import ~metrics ?spill plan ~rows:rows_at_cut image
            in
            feed t (fun tm -> tm >= cut);
            let final = Stream_exec.export t in
            (Stream_exec.close t ~horizon, Metrics.per_window metrics, final)
          in
          let rows_a, per_a, final_a = finish image' in
          let rows_b, per_b, final_b = finish ~spill:pool image in
          String.equal image image'
          && rows_a = rows_whole && rows_b = rows_whole && per_a = per_b
          && String.equal final_a final_b))

(* --- compaction faults, the CRC kernel, compaction under a model ------ *)

(* Values are strings: large ones fill a spill file quickly. *)
let str_codec =
  {
    Store.kind = 9;
    enc = Bin.w_string;
    dec = Bin.r_string;
    weight = (fun v -> String.length v + 32);
  }

let test_compaction_fault_names_key () =
  (* a live record corrupted on disk is found by the compaction that
     copies it: the fault names store and key, and no entry is dropped *)
  with_pool ~budget:0 (fun pool ->
      let s = Store.create ~pool ~name:"compactee" str_codec in
      let filler i = Printf.sprintf "f%02d" i in
      Store.set s "victim" (String.make 100 'v');
      for i = 0 to 69 do
        Store.set s (filler i) (String.make 1000 'f')
      done;
      check_int "no compaction while nothing is garbage" 0
        (Pool.compactions pool);
      (* the victim's record sits at offset 0; flip one value byte *)
      let path = spill_path pool in
      let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
      let byte = Bytes.create 1 in
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      ignore (Unix.read fd byte 0 1);
      Bytes.set byte 0 (Char.chr (Char.code (Bytes.get byte 0) lxor 0xff));
      ignore (Unix.lseek fd 40 Unix.SEEK_SET);
      ignore (Unix.write fd byte 0 1);
      Unix.close fd;
      (* removing fillers turns their records into garbage until a
         compaction runs and has to copy the victim *)
      let removed = ref 0 in
      (match
         for i = 0 to 69 do
           Store.remove s (filler i);
           incr removed
         done
       with
      | () -> Alcotest.fail "compaction copied a corrupt record"
      | exception File.Fault msg ->
          check_bool ("fault names the store: " ^ msg) true
            (Astring_contains.contains msg "store compactee");
          check_bool ("fault names the key: " ^ msg) true
            (Astring_contains.contains msg "key \"victim\""));
      check_int "the removal that triggered compaction took effect"
        (71 - (!removed + 1)) (Store.length s);
      check_int "the failed compaction is not counted" 0
        (Pool.compactions pool);
      check_string "the half-written file is gone, the old one kept" path
        (spill_path pool);
      match Store.find s "victim" with
      | exception File.Fault msg ->
          check_bool ("fault-in names the key: " ^ msg) true
            (Astring_contains.contains msg "key \"victim\"")
      | Some _ -> Alcotest.fail "corrupt record decoded as state"
      | None -> Alcotest.fail "compaction dropped the corrupt entry")

(* Bitwise CRC-32, independent of the kernel's tables. *)
let crc_reference s pos len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_known_answers () =
  check_int "crc32 123456789" 0xCBF43926 (Bin.crc32 "123456789");
  check_int "crc32 empty" 0 (Bin.crc32 "");
  List.iter
    (fun (pos, len) ->
      match Bin.crc32_sub "0123456789" pos len with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "crc32_sub pos %d len %d accepted" pos len)
    [ (-1, 2); (0, -1); (0, 11); (5, 6); (11, 0); (max_int, 1) ]

let prop_crc_alignments =
  qtest ~count:50 "crc32_sub = bytewise, every alignment and short length"
    QCheck2.Gen.(string_size (int_range 80 200))
    (fun s -> Printf.sprintf "%S" s)
    (fun s ->
      let ok = ref true in
      for pos = 0 to 15 do
        for len = 0 to 64 do
          if Bin.crc32_sub s pos len <> crc_reference s pos len then ok := false
        done
      done;
      !ok)

let prop_crc_long =
  qtest ~count:8 "crc32_sub = bytewise up to 1 MiB"
    QCheck2.Gen.(
      let* len = int_range 0 (1 lsl 20) in
      let* pos = int_range 0 15 in
      let* seed = int in
      return (len, pos, seed))
    (fun (len, pos, seed) -> Printf.sprintf "len %d pos %d seed %d" len pos seed)
    (fun (len, pos, seed) ->
      let st = Random.State.make [| seed |] in
      let s = String.init (pos + len) (fun _ -> Char.chr (Random.State.int st 256)) in
      Bin.crc32_sub s pos len = crc_reference s pos len)

type compact_op =
  | C_set of int * int  (* key, value length *)
  | C_find of int
  | C_access of int * int * bool
      (* key, length of a value made for an absent key; [true]: close
         with commit, [false]: with remove *)
  | C_remove of int

let print_compact_op = function
  | C_set (k, n) -> Printf.sprintf "set k%d (%d B)" k n
  | C_find k -> Printf.sprintf "find k%d" k
  | C_access (k, n, commit) ->
      Printf.sprintf "access k%d (%d B), %s" k n
        (if commit then "commit" else "remove")
  | C_remove k -> Printf.sprintf "remove k%d" k

let gen_compact_ops =
  QCheck2.Gen.(
    let key = int_range 0 23 and size = int_range 500 3000 in
    list_size (int_range 200 300)
      (frequency
         [
           (8, map2 (fun k n -> C_set (k, n)) key size);
           (3, map (fun k -> C_find k) key);
           (3, map3 (fun k n c -> C_access (k, n, c)) key size bool);
           (2, map (fun k -> C_remove k) key);
         ]))

let prop_compaction_model =
  qtest ~count:10 "budget-0 store = map model through compactions"
    gen_compact_ops
    (fun ops -> String.concat "; " (List.map print_compact_op ops))
    (fun ops ->
      with_pool ~budget:0 (fun pool ->
          let s = Store.create ~pool ~name:"compacted" str_codec in
          let model = ref Smap.empty and version = ref 0 in
          (* every written value is distinct, so a stale record shows *)
          let value k n =
            incr version;
            let head = Printf.sprintf "k%d.v%d:" k !version in
            head ^ String.make (max 0 (n - String.length head)) (Char.chr (97 + k))
          in
          let matches () =
            Store.length s = Smap.cardinal !model
            && List.sort compare (Store.fold (fun k v acc -> (k, v) :: acc) s [])
               = Smap.bindings !model
          in
          let step op =
            match op with
            | C_set (k, n) ->
                let v = value k n in
                Store.set s (key_of k) v;
                model := Smap.add (key_of k) v !model;
                true
            | C_find k -> Store.find s (key_of k) = Smap.find_opt (key_of k) !model
            | C_access (k, n, commit) ->
                let key = key_of k in
                let expect = Smap.find_opt key !model and made = ref None in
                let got =
                  Store.access s key ~init:(fun () ->
                      let v = value k n in
                      made := Some v;
                      v)
                in
                if commit then begin
                  Store.commit s;
                  model := Smap.add key got !model
                end
                else begin
                  Store.remove s key;
                  model := Smap.remove key !model
                end;
                (match expect with
                | Some v -> !made = None && String.equal got v
                | None -> !made = Some got)
            | C_remove k ->
                Store.remove s (key_of k);
                model := Smap.remove (key_of k) !model;
                true
          in
          let agreed =
            List.for_all
              (fun op -> step op && matches () && Store.check_ring s = Ok ())
              ops
          in
          (* end on a set that compacts: with budget 0 every entry is
             then spilled, and the rewritten file holds exactly them *)
          if Smap.is_empty !model then ignore (step (C_set (0, 600)));
          let before = Pool.compactions pool in
          let keys = Array.of_list (List.map fst (Smap.bindings !model)) in
          let i = ref 0 in
          while Pool.compactions pool = before do
            let key = keys.(!i mod Array.length keys) in
            Store.set s key (Smap.find key !model);
            incr i
          done;
          let scan = File.scan (spill_path pool) in
          agreed && matches ()
          && Store.check_ring s = Ok ()
          && Pool.compactions pool >= 2
          && scan.File.skipped = []
          && List.sort compare
               (List.map
                  (fun (_, kind, k, bytes) ->
                    (kind, k, Bin.r_string (Bin.reader bytes)))
                  scan.File.records)
             = List.map (fun (k, v) -> (9, k, v)) (Smap.bindings !model)))

(* --- on-disk bytes ------------------------------------------------------ *)

(* A deterministic run of appends (small records across many 8 KiB
   chunks, a few larger than a chunk in between) and a compaction copy
   of every other record, followed by more appends: the digests of both
   closed files were recorded before spill files gained their append
   tail, and pin that the tail changes when bytes reach the disk, never
   which bytes. *)
let golden_value i =
  if i mod 97 = 50 then String.make (9000 + i) (Char.chr (65 + (i mod 26)))
  else String.init (i mod 61) (fun j -> Char.chr (((i * 31) + j) land 0xff))

let test_golden_file_bytes () =
  with_temp_dir (fun dir ->
      let pa = Filename.concat dir "a.spill" and pb = Filename.concat dir "b.spill" in
      let a = File.create pa and b = File.create pb in
      let recs =
        List.init 600 (fun i ->
            let key = Printf.sprintf "key%04d" i in
            (key, File.append a ~kind:(i mod 5) ~key (golden_value i)))
      in
      let c = File.copier () in
      File.copy_start c;
      List.iteri
        (fun i (key, (off, len)) ->
          if i mod 2 = 0 then ignore (File.copy c ~src:a ~dst:b ~off ~len ~key))
        recs;
      File.flush c b;
      for i = 600 to 639 do
        ignore (File.append b ~kind:1 ~key:(string_of_int i) (golden_value i))
      done;
      File.close a;
      File.close b;
      check_string "appended file bytes" "037fdf5da5af8fda23602c4aa49b572c"
        (Digest.to_hex (Digest.file pa));
      check_string "compacted file bytes" "5420d32b2ad74c4af30779a5c02ff103"
        (Digest.to_hex (Digest.file pb)))

(* --- the append tail ------------------------------------------------------ *)

let disk_size path = (Unix.stat path).Unix.st_size

(* Mostly small records, with one larger than a chunk every 97. *)
let tail_value i =
  if i mod 97 = 40 then String.make 9000 (Char.chr (97 + (i mod 26)))
  else String.make (i mod 70) (Char.chr (65 + (i mod 26)))

let read_back f (key, value, (off, len)) =
  let kind, v = File.read f ~off ~len ~key in
  check_int ("kind of " ^ key) 3 kind;
  check_string ("value of " ^ key) value v

let test_tail_reads () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "t.spill" in
      let writes = Fw_obs.Counter.make () in
      let f = File.create ~writes path in
      let first = ("first", "in the tail", File.append f ~kind:3 ~key:"first" "in the tail") in
      check_int "nothing written yet" 0 (disk_size path);
      check_int "no write issued" 0 (Fw_obs.Counter.get writes);
      read_back f first;
      let _, _, (off, len) = first in
      (match File.read f ~off ~len ~key:"second" with
      | exception File.Fault msg ->
          check_bool ("tail read names the key: " ^ msg) true
            (Astring_contains.contains msg "second")
      | _ -> Alcotest.fail "wrong-key read from the tail succeeded");
      (* records straddling tail writes, and records larger than the
         tail between them: each reads back right after its append and
         again at the end *)
      let recs =
        first
        :: List.init 400 (fun i ->
               let key = Printf.sprintf "r%d" i and value = tail_value i in
               let r = (key, value, File.append f ~kind:3 ~key value) in
               read_back f r;
               r)
      in
      List.iter (read_back f) recs;
      let on_disk = disk_size path in
      check_bool "only the tail is pending" true
        (on_disk < File.size f && File.size f - on_disk <= 8192);
      let n = Fw_obs.Counter.get writes in
      check_bool (Printf.sprintf "%d writes for 401 records" n) true (n <= 401 / 8);
      (* a compaction copy writes the source's pending tail first *)
      let g = File.create ~writes (Filename.concat dir "g.spill") in
      let c = File.copier () in
      File.copy_start c;
      let copied =
        List.map
          (fun (key, value, (off, len)) ->
            (key, value, (File.copy c ~src:f ~dst:g ~off ~len ~key, len)))
          recs
      in
      File.flush c g;
      check_int "source tail written before the copy" (File.size f) (disk_size path);
      check_int "copy is whole" (File.size f) (File.size g);
      List.iter (read_back g) copied;
      File.close f;
      File.close g)

let test_tail_write_failure () =
  (* a FIFO cannot seek: every write fails, with the tail still held *)
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "fifo.spill" in
      Unix.mkfifo path 0o600;
      let writes = Fw_obs.Counter.make () in
      let f = File.create ~writes path in
      let rec fill acc i =
        let key = Printf.sprintf "k%d" i in
        match File.append f ~kind:3 ~key (String.make 60 'x') with
        | r -> fill ((key, String.make 60 'x', r) :: acc) (i + 1)
        | exception Unix.Unix_error _ -> List.rev acc
      in
      let recs = fill [] 0 in
      check_bool "the tail filled before the failed write" true (List.length recs > 50);
      let size = File.size f in
      List.iter (read_back f) recs;
      (match File.append f ~kind:3 ~key:"again" "x" with
      | exception Unix.Unix_error _ -> ()
      | _ -> Alcotest.fail "the next append did not retry the tail write");
      check_int "failed appends append nothing" size (File.size f);
      List.iter (read_back f) recs;
      check_int "no write completed" 0 (Fw_obs.Counter.get writes);
      File.close f)

let test_tail_truncate_and_remove () =
  let registry = Fw_obs.Registry.create () in
  let pool = Pool.create ~registry ~budget:0 () in
  Fun.protect ~finally:(fun () -> Pool.close pool) (fun () ->
      let s = Store.create ~pool ~name:"cleared" str_codec in
      for i = 0 to 9 do
        Store.set s (key_of i) (Printf.sprintf "old%d" i)
      done;
      let path = spill_path pool in
      check_int "the evictions wait in the tail" 0 (disk_size path);
      Store.clear s;
      check_int "clear drops the disk bytes" 0 (Pool.disk_bytes pool);
      (* new records reuse the dropped tail's offsets; past one chunk
         the file on disk holds exactly them *)
      for i = 0 to 499 do
        Store.set s (key_of i) (Printf.sprintf "new%d" i)
      done;
      List.iter
        (fun i ->
          check_bool "value after clear" true
            (Store.find s (key_of i) = Some (Printf.sprintf "new%d" i)))
        [ 0; 9; 10; 499 ];
      let scan = File.scan path in
      check_bool "the file holds records" true (scan.File.records <> []);
      check_int "no stale bytes" 0 (List.length scan.File.skipped);
      List.iter
        (fun (_, _, k, v) ->
          check_bool ("new record for " ^ k) true
            (String.starts_with ~prefix:"new" (Bin.r_string (Bin.reader v))))
        scan.File.records;
      check_bool "writes counted on the pool" true (Pool.writes pool > 0);
      check_bool "spill_writes_total exported" true
        (Astring_contains.contains
           (Fw_obs.Export.prometheus registry)
           "spill_writes_total"));
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "r.spill" in
      let writes = Fw_obs.Counter.make () in
      let f = File.create ~writes path in
      ignore (File.append f ~kind:3 ~key:"k" "pending");
      File.remove f;
      check_bool "removed" false (Sys.file_exists path);
      check_int "the pending tail was not written" 0 (Fw_obs.Counter.get writes))

(* --- the store's file ------------------------------------------------------ *)

(* A fixed history of sets, fault-ins and removes over 53 keys, ending
   on the store's third compaction: a compaction writes the whole new
   file, so the bytes on disk are all of it.  The digest was recorded
   before compaction walked a ring of spilled entries into a reused
   target, and pins that offsets, record bytes and file order did not
   change. *)
let test_golden_store_file () =
  with_pool ~budget:0 (fun pool ->
      let s = Store.create ~pool ~name:"golden" str_codec in
      let i = ref 0 in
      while Pool.compactions pool < 3 do
        let key = key_of (!i * 7 mod 53) in
        (match !i mod 11 with
        | 3 -> ignore (Store.find s key)
        | 8 -> Store.remove s key
        | _ -> Store.set s key (golden_value !i));
        incr i
      done;
      let path = spill_path pool in
      check_int "history length" 1254 !i;
      check_int "the whole file is on disk" (Pool.disk_bytes pool) (disk_size path);
      check_string "store file bytes" "dadd5aed29aae4afb84b157fbf98bc30" (Digest.to_hex (Digest.file path)))

(* Compaction copies into the store's previous file, emptied, and the
   file it leaves becomes the next target: after many compactions the
   store owns two files, the one not in use empty, and closing the pool
   deletes both. *)
let test_compaction_reuses_target () =
  let pool = Pool.create ~budget:0 () in
  let dir = Pool.dir pool in
  Fun.protect ~finally:(fun () -> Pool.close pool) (fun () ->
      let s = Store.create ~pool ~name:"reuse" str_codec in
      let i = ref 0 in
      while Pool.compactions pool < 6 do
        Store.set s (key_of (!i mod 40)) (golden_value !i);
        incr i;
        check_bool "at most two files" true (List.length (spill_files pool) <= 2)
      done;
      let files = spill_files pool in
      check_int "two files after 6 compactions" 2 (List.length files);
      let current = spill_path pool in
      List.iter
        (fun f -> if f <> current then check_int "the target is empty" 0 (disk_size f))
        files;
      check_int "the current file holds the disk bytes" (Pool.disk_bytes pool)
        (disk_size current);
      for k = 0 to 39 do
        check_bool "value after compactions" true (Store.find s (key_of k) <> None)
      done);
  check_bool "the pool's directory and files are gone" false (Sys.file_exists dir)

(* A record whose bytes the disk no longer holds: the positioned read
   comes up short at the end of the file and faults instead of
   returning a partial record. *)
let test_short_read_faults () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "short.spill" in
      let f = File.create path in
      let recs =
        List.init 300 (fun i ->
            let key = Printf.sprintf "s%d" i and value = String.make 50 'v' in
            (key, value, File.append f ~kind:3 ~key value))
      in
      let on_disk = disk_size path in
      let key, _, (off, len) =
        List.find (fun (_, _, (off, len)) -> off + len = on_disk) recs
      in
      Unix.truncate path (on_disk - 10);
      (match File.read f ~off ~len ~key with
      | exception File.Fault msg ->
          check_bool ("fault says truncated: " ^ msg) true
            (String.starts_with ~prefix:"truncated spill file" msg)
      | _ -> Alcotest.fail "a short read returned a record");
      read_back f (List.hd recs);
      File.close f)

let suite =
  [
    Alcotest.test_case "store semantics (resident)" `Quick
      test_store_semantics_resident;
    Alcotest.test_case "store semantics (budgeted)" `Quick
      test_store_semantics_budgeted;
    Alcotest.test_case "evict/fault-in bit identity, all aggregates" `Quick
      test_evict_fault_bit_identity;
    Alcotest.test_case "swag round trip through budgeted store" `Quick
      test_swag_round_trip_through_store;
    Alcotest.test_case "codec round trips (state, swag, truncation)" `Quick
      test_codec_round_trips;
    Alcotest.test_case "pool enforces budget + slack bound" `Quick
      test_pool_bound_enforced;
    Alcotest.test_case "set_budget shrink evicts immediately" `Quick
      test_set_budget_shrink_evicts;
    Alcotest.test_case "negative budget rejected" `Quick
      test_negative_budget_rejected;
    Alcotest.test_case "compaction bounds disk under churn" `Quick
      test_compaction_bounds_disk;
    Alcotest.test_case "spill file: read, scan, corrupt, truncated" `Quick
      test_file_read_and_scan;
    Alcotest.test_case "fault-in of corrupt record is typed" `Quick
      test_fault_in_is_typed;
    Alcotest.test_case "budget 0 == unbudgeted: time windows" `Quick
      test_budget0_time_windows;
    Alcotest.test_case "budget 0 == unbudgeted: count windows" `Quick
      test_budget0_count_windows;
    Alcotest.test_case "budget 0 == unbudgeted: session windows" `Quick
      test_budget0_session_windows;
    Alcotest.test_case "pane roll: one store access per key" `Quick
      test_pane_roll_one_access_per_key;
    Alcotest.test_case "checkpoint under budget is byte-identical" `Quick
      test_checkpoint_under_budget_byte_identical;
    Alcotest.test_case "failed import releases its stores" `Quick
      test_failed_import_releases_stores;
    prop_image_backend_independent;
    prop_store_model;
    prop_access_accounts;
    Alcotest.test_case "store visit order = stdlib Hashtbl" `Quick
      test_store_visit_order;
    Alcotest.test_case "compaction fault names store and key" `Quick
      test_compaction_fault_names_key;
    Alcotest.test_case "crc32 known answers and bounds" `Quick
      test_crc_known_answers;
    prop_crc_alignments;
    prop_crc_long;
    prop_compaction_model;
    Alcotest.test_case "closed spill files: golden bytes" `Quick
      test_golden_file_bytes;
    Alcotest.test_case "append tail: reads, straddles, big records, copy" `Quick
      test_tail_reads;
    Alcotest.test_case "append tail: a failed write loses nothing" `Quick
      test_tail_write_failure;
    Alcotest.test_case "append tail: clear and remove" `Quick
      test_tail_truncate_and_remove;
    Alcotest.test_case "store file after 3 compactions: golden bytes" `Quick
      test_golden_store_file;
    Alcotest.test_case "compaction reuses its target, close deletes both" `Quick
      test_compaction_reuses_target;
    Alcotest.test_case "short read at end of file faults" `Quick
      test_short_read_faults;
    prop_store_hash;
    prop_pane_slots_boxed;
  ]
