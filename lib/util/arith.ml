exception Overflow

let add a b =
  let s = a + b in
  (* Overflow iff both operands share a sign that the sum does not. *)
  if (a >= 0 && b >= 0 && s < 0) || (a < 0 && b < 0 && s >= 0) then
    raise Overflow
  else s

let mul a b =
  if a = 0 || b = 0 then 0
  else
    let p = a * b in
    if p / b <> a then raise Overflow else p

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let lcm a b = if a = 0 || b = 0 then 0 else abs (mul (a / gcd a b) b)

let gcd_list = List.fold_left gcd 0

let lcm_list = List.fold_left lcm 1

let divides a b = a <> 0 && b mod a = 0

(* [a * b mod m] for 0 <= a, b < m without overflow: the direct
   product when it fits, else double-and-add on residues. *)
let mulmod a b m =
  if a = 0 || b <= max_int / a then a * b mod m
  else
    let addmod x y = if x >= m - y then x - (m - y) else x + y in
    let rec go acc a b =
      if b = 0 then acc
      else
        let acc = if b land 1 = 1 then addmod acc a else acc in
        go acc (addmod a a) (b lsr 1)
    in
    go 0 a b

let powmod base e m =
  let rec go acc base e =
    if e = 0 then acc
    else
      let acc = if e land 1 = 1 then mulmod acc base m else acc in
      go acc (mulmod base base m) (e lsr 1)
  in
  go 1 (base mod m) e

(* Deterministic Miller-Rabin: these bases decide every n < 2^64. *)
let is_prime n =
  let bases = [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37 ] in
  if n < 2 then false
  else if List.mem n bases then true
  else if List.exists (fun p -> n mod p = 0) bases then false
  else
    let rec split d s =
      if d land 1 = 0 then split (d lsr 1) (s + 1) else (d, s)
    in
    let d, s = split (n - 1) 0 in
    let composite_by a =
      let rec square x r =
        r < s && (x = n - 1 || square (mulmod x x n) (r + 1))
      in
      let x = powmod a d n in
      x <> 1 && not (square x 0)
    in
    not (List.exists composite_by bases)

(* Pollard's rho with Floyd cycle finding: a non-trivial factor of an
   odd composite [n], retrying with the next constant on a full cycle. *)
let rec rho n c =
  let f x =
    let s = mulmod x x n in
    if s >= n - c then s - (n - c) else s + c
  in
  let rec walk x y =
    let x = f x and y = f (f y) in
    match gcd (x - y) n with 1 -> walk x y | d -> d
  in
  match walk 2 2 with d when d = n -> rho n (c + 1) | d -> d

(* Prime factors of [n >= 1] with multiplicity.  Trial division strips
   the primes below [trial_limit] off the shrinking cofactor; a larger
   rest is split by Miller-Rabin and Pollard's rho, so the cost does not
   grow with sqrt n. *)
let trial_limit = 1000

let prime_factors n =
  let rec split n acc =
    if n = 1 then acc
    else if is_prime n then n :: acc
    else
      let d = rho n 1 in
      split d (split (n / d) acc)
  in
  let rec trial n p acc =
    if p * p > n then if n > 1 then n :: acc else acc
    else if p > trial_limit then split n acc
    else if n mod p = 0 then trial (n / p) p (p :: acc)
    else trial n (if p = 2 then 3 else p + 2) acc
  in
  trial n 2 []

let divisors n =
  if n <= 0 then invalid_arg "Arith.divisors: non-positive argument";
  (* [ds] (sorted) times p^0..p^e for the run of e [p]s heading [fs]:
     each ds * p^k is sorted, so merging keeps the whole list sorted *)
  let rec expand ds = function
    | [] -> ds
    | p :: _ as fs ->
        let rec powers merged scaled = function
          | q :: rest when q = p ->
              let scaled = List.map (fun d -> d * p) scaled in
              powers (List.merge Int.compare merged scaled) scaled rest
          | rest -> (merged, rest)
        in
        let ds, rest = powers ds ds fs in
        expand ds rest
  in
  expand [ 1 ] (List.sort Int.compare (prime_factors n))

let ceil_div a b =
  if b <= 0 then invalid_arg "Arith.ceil_div: non-positive divisor";
  if a <= 0 then invalid_arg "Arith.ceil_div: non-positive dividend";
  (a + b - 1) / b

let pow base e =
  if e < 0 then invalid_arg "Arith.pow: negative exponent";
  let rec go acc base e =
    let acc = if e land 1 = 1 then mul acc base else acc in
    let e = e asr 1 in
    if e = 0 then acc else go acc (mul base base) e
  in
  if e = 0 then 1 else go 1 base e
