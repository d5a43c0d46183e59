open Helpers
module Aggregate = Fw_agg.Aggregate
module Combine = Fw_agg.Combine

let test_taxonomy () =
  let kind_is f k = Aggregate.kind f = k in
  check_bool "MIN distributive" true (kind_is Aggregate.Min Aggregate.Distributive);
  check_bool "MAX distributive" true (kind_is Aggregate.Max Aggregate.Distributive);
  check_bool "COUNT distributive" true
    (kind_is Aggregate.Count Aggregate.Distributive);
  check_bool "SUM distributive" true (kind_is Aggregate.Sum Aggregate.Distributive);
  check_bool "AVG algebraic" true (kind_is Aggregate.Avg Aggregate.Algebraic);
  check_bool "STDEV algebraic" true (kind_is Aggregate.Stdev Aggregate.Algebraic);
  check_bool "MEDIAN holistic" true (kind_is Aggregate.Median Aggregate.Holistic)

let test_semantics () =
  (* Footnote 5: MIN/MAX use covered-by, COUNT/SUM/AVG partitioned-by. *)
  check_bool "MIN covered-by" true
    (Aggregate.semantics Aggregate.Min = Some semantics_covered);
  check_bool "MAX covered-by" true
    (Aggregate.semantics Aggregate.Max = Some semantics_covered);
  List.iter
    (fun f ->
      check_bool "partitioned-by" true
        (Aggregate.semantics f = Some semantics_partitioned))
    [ Aggregate.Count; Aggregate.Sum; Aggregate.Avg; Aggregate.Stdev ];
  check_bool "MEDIAN unshareable" true (Aggregate.semantics Aggregate.Median = None);
  check_bool "shareable" false (Aggregate.shareable Aggregate.Median);
  check_bool "shareable MIN" true (Aggregate.shareable Aggregate.Min)

let test_names () =
  List.iter
    (fun f ->
      check_bool "roundtrip" true
        (Aggregate.of_string (Aggregate.to_string f) = Some f))
    Aggregate.all;
  check_bool "lowercase" true (Aggregate.of_string "min" = Some Aggregate.Min);
  check_bool "mixed case" true (Aggregate.of_string "Avg" = Some Aggregate.Avg);
  check_bool "unknown" true (Aggregate.of_string "frobnicate" = None)

(* --- Combine: g/h semantics --- *)

let finalize_of_list f = function
  | [] -> nan
  | v :: vs ->
      Combine.finalize
        (List.fold_left Combine.add (Combine.of_value f v) vs)

let close = Fw_agg.Combine.equal_result

let test_direct_results () =
  let vs = [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ] in
  check_bool "min" true (close 1.0 (finalize_of_list Aggregate.Min vs));
  check_bool "max" true (close 9.0 (finalize_of_list Aggregate.Max vs));
  check_bool "count" true (close 8.0 (finalize_of_list Aggregate.Count vs));
  check_bool "sum" true (close 31.0 (finalize_of_list Aggregate.Sum vs));
  check_bool "avg" true (close 3.875 (finalize_of_list Aggregate.Avg vs));
  (* population stdev of vs *)
  let mean = 31.0 /. 8.0 in
  let var =
    List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.0)) 0.0 vs /. 8.0
  in
  check_bool "stdev" true
    (close (sqrt var) (finalize_of_list Aggregate.Stdev vs))

let test_median () =
  check_bool "odd" true
    (close 4.0 (finalize_of_list Aggregate.Median [ 9.0; 4.0; 1.0 ]));
  check_bool "even" true
    (close 2.5 (finalize_of_list Aggregate.Median [ 4.0; 1.0; 2.0; 3.0 ]));
  check_bool "single" true
    (close 7.0 (finalize_of_list Aggregate.Median [ 7.0 ]))

let test_merge_mismatch () =
  Alcotest.check_raises "mismatched states"
    (Invalid_argument "Combine.merge: mismatched aggregate states") (fun () ->
      ignore
        (Combine.merge
           (Combine.of_value Aggregate.Min 1.0)
           (Combine.of_value Aggregate.Max 1.0)))

let test_count_of () =
  let st =
    Combine.add (Combine.add (Combine.of_value Aggregate.Avg 1.0) 2.0) 3.0
  in
  check_int "avg tracks count" 3 (Combine.count_of st);
  check_bool "aggregate_of" true (Combine.aggregate_of st = Aggregate.Avg)

(* Distributive/algebraic law (Theorem 5): folding the whole list equals
   merging the sub-aggregates of any partition into consecutive chunks. *)
let gen_values =
  QCheck2.Gen.(list_size (int_range 1 30) (float_range (-100.0) 100.0))

let split_at_points points vs =
  (* partition [vs] into chunks at the sorted positions [points] *)
  let n = List.length vs in
  let points = List.sort_uniq compare (List.map (fun p -> p mod n) points) in
  let rec go i chunk acc vs points =
    match (vs, points) with
    | [], _ -> List.rev (List.rev chunk :: acc)
    | v :: vs', p :: ps when i = p && chunk <> [] ->
        go i [] (List.rev chunk :: acc) (v :: vs') ps
    | v :: vs', _ -> go (i + 1) (v :: chunk) acc vs' points
  in
  List.filter (fun c -> c <> []) (go 0 [] [] vs points)

let state_of_chunk f = function
  | [] -> None
  | v :: vs -> Some (List.fold_left Combine.add (Combine.of_value f v) vs)

let prop_partition_merge f name =
  qtest ~count:300 (name ^ ": merge over a partition = direct fold")
    QCheck2.Gen.(pair gen_values (list_size (int_range 0 4) (int_range 0 29)))
    QCheck2.Print.(pair (list float) (list int))
    (fun (vs, points) ->
      let chunks = split_at_points points vs in
      let states = List.filter_map (state_of_chunk f) chunks in
      match states with
      | [] -> true
      | s :: ss ->
          let merged = Combine.finalize (List.fold_left Combine.merge s ss) in
          close merged (finalize_of_list f vs))

(* Theorem 6: MIN/MAX stay correct over overlapping chunks. *)
let prop_overlapping_minmax f name =
  qtest ~count:300 (name ^ ": merge over overlapping covers = direct fold")
    QCheck2.Gen.(pair gen_values (int_range 1 10))
    QCheck2.Print.(pair (list float) int)
    (fun (vs, overlap) ->
      let n = List.length vs in
      let arr = Array.of_list vs in
      let mid = max 1 (n / 2) in
      let chunk1 = Array.to_list (Array.sub arr 0 (min n (mid + overlap))) in
      let chunk2 = Array.to_list (Array.sub arr (max 0 (mid - overlap))
                                    (n - max 0 (mid - overlap))) in
      let states = List.filter_map (state_of_chunk f) [ chunk1; chunk2 ] in
      match states with
      | [] -> true
      | s :: ss ->
          close
            (Combine.finalize (List.fold_left Combine.merge s ss))
            (finalize_of_list f vs))

(* --- monoid structure: identity and inverse --- *)

let test_identity () =
  List.iter
    (fun f ->
      let vs = [ 3.0; 1.0; 4.0; 1.0; 5.0 ] in
      let st = Option.get (state_of_chunk f vs) in
      check_bool
        (Aggregate.to_string f ^ ": identity neutral on the left")
        true
        (close
           (Combine.finalize (Combine.merge (Combine.identity f) st))
           (Combine.finalize st));
      check_bool
        (Aggregate.to_string f ^ ": identity neutral on the right")
        true
        (close
           (Combine.finalize (Combine.merge st (Combine.identity f)))
           (Combine.finalize st)))
    Aggregate.all;
  List.iter
    (fun f ->
      check_int
        (Aggregate.to_string f ^ ": identity counts nothing")
        0
        (Combine.count_of (Combine.identity f)))
    Aggregate.[ Count; Avg; Stdev; Median ]

let test_invertible_flags () =
  (* STDEV has an algebraic inverse but subtract-on-evict cancels
     catastrophically, so the engine must treat it as non-invertible. *)
  List.iter
    (fun (f, expect) ->
      check_bool (Aggregate.to_string f) expect (Combine.invertible f))
    Aggregate.
      [
        (Count, true);
        (Sum, true);
        (Avg, true);
        (Stdev, false);
        (Min, false);
        (Max, false);
        (Median, false);
      ]

let test_inverse_none () =
  List.iter
    (fun f ->
      let a = Combine.of_value f 1.0 and b = Combine.of_value f 2.0 in
      check_bool
        (Aggregate.to_string f ^ ": no inverse")
        true
        (Combine.inverse (Combine.merge a b) b = None))
    Aggregate.[ Min; Max; Median ];
  (* removing more items than the total holds is refused *)
  let one = Combine.of_value Aggregate.Count 1.0 in
  let two = Combine.add (Combine.of_value Aggregate.Count 1.0) 1.0 in
  check_bool "COUNT: part larger than total" true (Combine.inverse one two = None)

(* inverse (merge a b) b recovers a, up to rounding.  STDEV is checked
   through its inverse too (the algebra holds; only eviction in the
   engine avoids it), with a looser tolerance for the M2 cancellation. *)
let prop_inverse ?(tol = 1e-9) f name =
  qtest ~count:300 (name ^ ": inverse undoes merge")
    QCheck2.Gen.(pair gen_values gen_values)
    QCheck2.Print.(pair (list float) (list float))
    (fun (va, vb) ->
      match (state_of_chunk f va, state_of_chunk f vb) with
      | Some a, Some b -> (
          let total = Combine.merge a b in
          match Combine.inverse total b with
          | None -> false
          | Some a' ->
              let x = Combine.finalize a and y = Combine.finalize a' in
              abs_float (x -. y)
              <= tol *. Float.max 1.0 (Float.max (abs_float x) (abs_float y)))
      | _ -> true)

(* --- STDEV numerical stability (Welford/Chan vs sum-of-squares) --- *)

(* Adversarial magnitudes: values near 1e8 with spread ~1.  The naive
   sum/sumsq formula loses all significant digits of the variance here
   (sum² and sumsq agree to ~16 digits); Welford accumulation and the
   Chan merge keep the result within ~1e-6 relative of the two-pass
   reference.  Offsets are integers so the inputs are exactly
   representable and the reference is exact. *)
let prop_stdev_adversarial =
  let gen =
    QCheck2.Gen.(
      pair
        (list_size (int_range 2 40) (int_range 0 10))
        (int_range 0 4))
  in
  qtest ~count:300 "STDEV: Welford/Chan survive mean >> spread"
    gen
    QCheck2.Print.(pair (list int) int)
    (fun (offsets, cut) ->
      let vs = List.map (fun o -> 1e8 +. float_of_int o) offsets in
      let expected = Fw_engine.Reference.eval Aggregate.Stdev vs in
      (* direct Welford fold *)
      let direct = finalize_of_list Aggregate.Stdev vs in
      (* Chan merge over a two-chunk partition *)
      let n = List.length vs in
      let k = max 1 (cut * n / 5) in
      let chunk1 = List.filteri (fun i _ -> i < k) vs in
      let chunk2 = List.filteri (fun i _ -> i >= k) vs in
      let merged =
        match
          (state_of_chunk Aggregate.Stdev chunk1,
           state_of_chunk Aggregate.Stdev chunk2)
        with
        | Some a, Some b -> Combine.finalize (Combine.merge a b)
        | Some a, None | None, Some a -> Combine.finalize a
        | None, None -> nan
      in
      let ok got =
        abs_float (got -. expected)
        <= (1e-6 *. Float.max (abs_float expected) (abs_float got)) +. 1e-9
      in
      ok direct && ok merged)

let suite =
  [
    Alcotest.test_case "taxonomy" `Quick test_taxonomy;
    Alcotest.test_case "semantics (footnote 5)" `Quick test_semantics;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "direct results" `Quick test_direct_results;
    Alcotest.test_case "median" `Quick test_median;
    Alcotest.test_case "merge mismatch" `Quick test_merge_mismatch;
    Alcotest.test_case "count_of" `Quick test_count_of;
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "invertible flags" `Quick test_invertible_flags;
    Alcotest.test_case "inverse: None cases" `Quick test_inverse_none;
    prop_inverse Aggregate.Count "COUNT";
    prop_inverse ~tol:1e-9 Aggregate.Sum "SUM";
    prop_inverse ~tol:1e-9 Aggregate.Avg "AVG";
    (* loose: undoing a Chan merge cancels in M2, which is exactly why
       the engine's eviction path never relies on it *)
    prop_inverse ~tol:1e-4 Aggregate.Stdev "STDEV";
    prop_stdev_adversarial;
    prop_partition_merge Aggregate.Min "MIN";
    prop_partition_merge Aggregate.Max "MAX";
    prop_partition_merge Aggregate.Count "COUNT";
    prop_partition_merge Aggregate.Sum "SUM";
    prop_partition_merge Aggregate.Avg "AVG";
    prop_partition_merge Aggregate.Stdev "STDEV";
    prop_partition_merge Aggregate.Median "MEDIAN";
    prop_overlapping_minmax Aggregate.Min "MIN";
    prop_overlapping_minmax Aggregate.Max "MAX";
  ]
