(* The benchmark's own input generator.  It owns its PRNG (splitmix64)
   instead of borrowing the program's [Fw_util.Prng], so a change to the
   program can never change the inputs it is measured on.  Events are
   produced on demand, a batch at a time, so neither the generator's
   time nor a pre-built input list shows up in what is measured. *)

type rng = { mutable s : int64 }

let rng seed = { s = Int64.mul (Int64.of_int (seed + 1)) 0x2545F4914F6CDD1DL }

let next64 r =
  r.s <- Int64.add r.s 0x9E3779B97F4A7C15L;
  let z = r.s in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let float01 r = Int64.to_float (Int64.shift_right_logical (next64 r) 11) *. 0x1p-53

let below r n =
  if n <= 0 then invalid_arg "Gen.below";
  Int64.to_int (Int64.unsigned_rem (next64 r) (Int64.of_int n))

type keys = Uniform | Zipf of float  (* exponent *)

type spec = { seed : int; n_keys : int; keys : keys; eta : int }

type t = {
  spec : spec;
  r : rng;
  names : string array;
  cdf : float array;  (* cumulative key probabilities; empty when uniform *)
  mutable pos : int;  (* events produced so far *)
}

let create spec =
  if spec.n_keys < 1 || spec.eta < 1 then invalid_arg "Gen.create";
  let names = Array.init spec.n_keys (Printf.sprintf "k%05d") in
  let cdf =
    match spec.keys with
    | Uniform -> [||]
    | Zipf s ->
        let w = Array.init spec.n_keys (fun i -> 1.0 /. (float_of_int (i + 1) ** s)) in
        let total = Array.fold_left ( +. ) 0.0 w in
        let acc = ref 0.0 in
        Array.map
          (fun x ->
            acc := !acc +. (x /. total);
            !acc)
          w
  in
  { spec; r = rng spec.seed; names; cdf; pos = 0 }

let key_index t =
  match t.spec.keys with
  | Uniform -> below t.r t.spec.n_keys
  | Zipf _ ->
      let u = float01 t.r in
      let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if t.cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo

(* Event [i] has time [i / eta]; values are multiples of 0.25 in
   [0, 100), exact in binary and in two-decimal text, so CSV round trips
   are bit-exact. *)
let next t f =
  let time = t.pos / t.spec.eta in
  let k = key_index t in
  let v = float_of_int (below t.r 400) /. 4.0 in
  t.pos <- t.pos + 1;
  f time t.names.(k) v

let fill_batch t b n =
  Fw_engine.Batch.reset b;
  for _ = 1 to n do
    next t (fun time key value ->
        Fw_engine.Batch.push b (Fw_engine.Event.make ~time ~key ~value))
  done

let add_csv t buf n =
  for _ = 1 to n do
    next t (fun time key value ->
        Buffer.add_string buf (string_of_int time);
        Buffer.add_char buf ',';
        Buffer.add_string buf key;
        Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "%.2f" value);
        Buffer.add_char buf '\n')
  done
