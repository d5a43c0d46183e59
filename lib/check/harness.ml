type problem = { source : string; detail : string }

type failure = {
  seed : int;
  scenario : Scenario.t;
  problems : problem list;
  shrunk : Scenario.t;
  shrunk_problems : problem list;
}

type config = {
  iterations : int;
  base_seed : int;
  gen : Scenario.gen_config;
  invariants : bool;
  incremental_prob : float;
  crash_prob : float;
  shard_prob : float;
  batch_prob : float;
  serve_prob : float;
  spill_prob : float;
  max_failures : int;
}

let default_config =
  {
    iterations = 1000;
    base_seed = 42;
    gen = Scenario.default_gen;
    invariants = true;
    incremental_prob = 1.0;
    crash_prob = 0.0;
    shard_prob = 0.0;
    batch_prob = 1.0;
    serve_prob = 0.0;
    spill_prob = 0.0;
    max_failures = 5;
  }

type outcome = {
  checked : int;
  failures : failure list;  (** in discovery order *)
}

let problems_of ~invariants ~paths sc =
  let diffs =
    List.map
      (fun (d : Differential.discrepancy) ->
        { source = d.Differential.path; detail = d.Differential.detail })
      (Differential.check ~paths sc)
  in
  let invs =
    if invariants then
      List.map
        (fun (x : Invariants.violation) ->
          { source = x.Invariants.invariant; detail = x.Invariants.detail })
      @@ Invariants.check sc
    else []
  in
  diffs @ invs

(* Which paths this seed's campaign iteration runs.  Each dimension's
   coin is decided deterministically from the seed (not a global
   counter), so a failure replays identically under [--replay --seed N]
   no matter which iteration found it.  One rule: a stack runs only
   when the coin of every dimension it uses lands — its sink (sharded,
   checkpointed, served), incremental mode, batching and spilling. *)
let paths_for ?(incremental_prob = 1.0) ?(crash_prob = 0.0)
    ?(shard_prob = 0.0) ?(batch_prob = 1.0) ?(serve_prob = 0.0)
    ?(spill_prob = 0.0) seed =
  let coin prob salt =
    prob >= 1.0
    || prob > 0.0
       && Fw_util.Prng.bernoulli (Fw_util.Prng.create (seed lxor salt)) prob
  in
  let incremental = coin incremental_prob 0x1ec4e81 in
  let crash = coin crash_prob 0x5eed5a9 in
  let shard = coin shard_prob 0x3a2d6b5 in
  let batch = coin batch_prob 0x6a7c3b1 in
  let serve = coin serve_prob 0x2b1c9d7 in
  let spill = coin spill_prob 0x4d11a7 in
  List.filter
    (function
      | Paths.Stack { sink; mode; batched; spilled } ->
          (match sink with
          | Paths.Engine -> true
          | Paths.Sharded -> shard
          | Paths.Checkpointed -> crash
          | Paths.Served -> serve)
          && (mode = Fw_engine.Stream_exec.Naive || incremental)
          && ((not batched) || batch)
          && ((not spilled) || spill)
      | Paths.Reference | Paths.Rewritten _ | Paths.Sliced _ -> true)
    Paths.all

let check_seed ?(invariants = true) ?(incremental_prob = 1.0)
    ?(crash_prob = 0.0) ?(shard_prob = 0.0) ?(batch_prob = 1.0)
    ?(serve_prob = 0.0) ?(spill_prob = 0.0) gen seed =
  let sc = Scenario.of_seed gen seed in
  let paths =
    paths_for ~incremental_prob ~crash_prob ~shard_prob ~batch_prob
      ~serve_prob ~spill_prob seed
  in
  match problems_of ~invariants ~paths sc with
  | [] -> Ok sc
  | problems ->
      let still_fails sc' = problems_of ~invariants ~paths sc' <> [] in
      let shrunk = Shrink.scenario still_fails sc in
      Error
        {
          seed;
          scenario = sc;
          problems;
          shrunk;
          shrunk_problems = problems_of ~invariants ~paths shrunk;
        }

let run ?progress cfg =
  let failures = ref [] in
  let checked = ref 0 in
  (try
     for i = 0 to cfg.iterations - 1 do
       let seed = cfg.base_seed + i in
       (match
          check_seed ~invariants:cfg.invariants
            ~incremental_prob:cfg.incremental_prob ~crash_prob:cfg.crash_prob
            ~shard_prob:cfg.shard_prob ~batch_prob:cfg.batch_prob
            ~serve_prob:cfg.serve_prob ~spill_prob:cfg.spill_prob cfg.gen seed
        with
       | Ok _ -> ()
       | Error failure ->
           failures := failure :: !failures;
           if List.length !failures >= cfg.max_failures then raise Exit);
       incr checked;
       match progress with Some f -> f (i + 1) | None -> ()
     done
   with Exit -> ());
  { checked = !checked; failures = List.rev !failures }

let pp_problem ppf p = Format.fprintf ppf "[%s] %s" p.source p.detail

let pp_failure ppf f =
  Format.fprintf ppf
    "@[<v>seed %d: %a@,\
     replay:  fwfuzz --replay --seed %d@,\
     %a@,\
     shrunk to %d window(s), %d event(s):@,\
     %s@,\
     shrunk verdict: %a@]"
    f.seed Scenario.pp f.scenario f.seed
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_problem)
    f.problems
    (List.length f.shrunk.Scenario.windows)
    (List.length f.shrunk.Scenario.events)
    (Scenario.to_repro f.shrunk)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_problem)
    f.shrunk_problems
