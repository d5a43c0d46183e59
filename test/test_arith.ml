open Helpers
module Arith = Fw_util.Arith

let test_add_basic () =
  check_int "2+3" 5 (Arith.add 2 3);
  check_int "neg" (-5) (Arith.add (-2) (-3));
  check_int "mixed" 1 (Arith.add 4 (-3))

let test_add_overflow () =
  Alcotest.check_raises "max_int + 1" Arith.Overflow (fun () ->
      ignore (Arith.add max_int 1));
  Alcotest.check_raises "min_int - 1" Arith.Overflow (fun () ->
      ignore (Arith.add min_int (-1)));
  check_int "max_int + 0 ok" max_int (Arith.add max_int 0)

let test_mul_basic () =
  check_int "6*7" 42 (Arith.mul 6 7);
  check_int "by zero" 0 (Arith.mul 12345 0);
  check_int "neg" (-42) (Arith.mul (-6) 7)

let test_mul_overflow () =
  Alcotest.check_raises "max_int * 2" Arith.Overflow (fun () ->
      ignore (Arith.mul max_int 2));
  Alcotest.check_raises "big * big" Arith.Overflow (fun () ->
      ignore (Arith.mul (1 lsl 40) (1 lsl 40)))

let test_gcd () =
  check_int "gcd 12 18" 6 (Arith.gcd 12 18);
  check_int "gcd 7 13" 1 (Arith.gcd 7 13);
  check_int "gcd 0 5" 5 (Arith.gcd 0 5);
  check_int "gcd 5 0" 5 (Arith.gcd 5 0);
  check_int "gcd 0 0" 0 (Arith.gcd 0 0);
  check_int "gcd negatives" 6 (Arith.gcd (-12) 18)

let test_lcm () =
  check_int "lcm 4 6" 12 (Arith.lcm 4 6);
  check_int "lcm 10 20 30 40" 120
    (Arith.lcm_list [ 10; 20; 30; 40 ]);
  check_int "lcm 0 5" 0 (Arith.lcm 0 5);
  check_int "lcm_list empty" 1 (Arith.lcm_list []);
  Alcotest.check_raises "lcm overflow" Arith.Overflow (fun () ->
      ignore (Arith.lcm (max_int - 1) (max_int - 2)))

let test_divides () =
  check_bool "3 | 12" true (Arith.divides 3 12);
  check_bool "5 | 12" false (Arith.divides 5 12);
  check_bool "0 | 12" false (Arith.divides 0 12);
  check_bool "12 | 0" true (Arith.divides 12 0)

let test_divisors () =
  Alcotest.(check (list int)) "divisors 12" [ 1; 2; 3; 4; 6; 12 ]
    (Arith.divisors 12);
  Alcotest.(check (list int)) "divisors 1" [ 1 ] (Arith.divisors 1);
  Alcotest.(check (list int)) "divisors 13" [ 1; 13 ] (Arith.divisors 13);
  Alcotest.(check (list int)) "divisors 36" [ 1; 2; 3; 4; 6; 9; 12; 18; 36 ]
    (Arith.divisors 36);
  (* 63-bit inputs whose square root is past 2^31: no trial division
     up to sqrt n, and no [i * i] overflow *)
  Alcotest.(check (list int)) "divisors max_int"
    [ 1; 3; 715827883; 2147483647; 2147483649; 6442450941;
      1537228672809129301; max_int ]
    (Arith.divisors max_int);
  let p = (1 lsl 62) - 57 in
  Alcotest.(check (list int)) "divisors 2^62-57 (prime)" [ 1; p ]
    (Arith.divisors p);
  Alcotest.(check (list int)) "divisors (2^31-1)(2^31-19)"
    [ 1; 2147483629; 2147483647; 4611685975477714963 ]
    (Arith.divisors 4611685975477714963);
  for n = 1 to 5000 do
    let naive = List.filter (fun d -> n mod d = 0) (List.init n succ) in
    if Arith.divisors n <> naive then Alcotest.failf "divisors %d" n
  done;
  Alcotest.check_raises "divisors 0" (Invalid_argument
      "Arith.divisors: non-positive argument") (fun () ->
      ignore (Arith.divisors 0))

let test_ceil_div () =
  check_int "7/2 up" 4 (Arith.ceil_div 7 2);
  check_int "8/2 up" 4 (Arith.ceil_div 8 2);
  check_int "1/5 up" 1 (Arith.ceil_div 1 5)

let test_pow () =
  check_int "2^10" 1024 (Arith.pow 2 10);
  check_int "x^0" 1 (Arith.pow 12345 0);
  check_int "x^1" 12345 (Arith.pow 12345 1);
  check_int "1^big" 1 (Arith.pow 1 1000);
  Alcotest.check_raises "overflow" Arith.Overflow (fun () ->
      ignore (Arith.pow 10 40))

let prop_gcd_divides =
  qtest "gcd divides both"
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 100000))
    QCheck2.Print.(pair int int)
    (fun (a, b) ->
      let g = Arith.gcd a b in
      g > 0 && a mod g = 0 && b mod g = 0)

let prop_lcm_multiple =
  qtest "lcm is a common multiple and gcd*lcm = a*b"
    QCheck2.Gen.(pair (int_range 1 10000) (int_range 1 10000))
    QCheck2.Print.(pair int int)
    (fun (a, b) ->
      let l = Arith.lcm a b in
      l mod a = 0 && l mod b = 0 && Arith.gcd a b * l = a * b)

let prop_divisors_complete =
  qtest "divisors = brute force" ~count:100
    QCheck2.Gen.(int_range 1 2000)
    QCheck2.Print.int
    (fun n ->
      let brute =
        List.filter (fun d -> n mod d = 0) (List.init n (fun i -> i + 1))
      in
      Arith.divisors n = brute)

let prop_ceil_div =
  qtest "ceil_div matches float ceiling"
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 1 1000))
    QCheck2.Print.(pair int int)
    (fun (a, b) ->
      Arith.ceil_div a b
      = int_of_float (Float.ceil (float_of_int a /. float_of_int b)))

let suite =
  [
    Alcotest.test_case "add basic" `Quick test_add_basic;
    Alcotest.test_case "add overflow" `Quick test_add_overflow;
    Alcotest.test_case "mul basic" `Quick test_mul_basic;
    Alcotest.test_case "mul overflow" `Quick test_mul_overflow;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "lcm" `Quick test_lcm;
    Alcotest.test_case "divides" `Quick test_divides;
    Alcotest.test_case "divisors" `Quick test_divisors;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "pow" `Quick test_pow;
    prop_gcd_divides;
    prop_lcm_multiple;
    prop_divisors_complete;
    prop_ceil_div;
  ]
