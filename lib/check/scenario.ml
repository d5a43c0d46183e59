open Fw_window
module Prng = Fw_util.Prng
module Aggregate = Fw_agg.Aggregate
module Event = Fw_engine.Event
module Window_gen = Fw_workload.Window_gen
module Set_gen = Fw_workload.Set_gen
module Event_gen = Fw_workload.Event_gen

type shape = Random_shape | Chain_shape | Star_shape

let shape_to_string = function
  | Random_shape -> "random"
  | Chain_shape -> "chain"
  | Star_shape -> "star"

type gen_config = {
  max_windows : int;
  eta_max : int;
  horizon_min : int;
  horizon_max : int;
  period_bound : int;
  allow_holistic : bool;
  non_aligned_prob : float;
  family_prob : float;
  window_params : Window_gen.params;
  batch_min : int;
  batch_max : int;
  budget_min : int;
  budget_max : int;
}

let default_gen =
  {
    max_windows = 5;
    eta_max = 3;
    horizon_min = 16;
    horizon_max = 160;
    period_bound = 20_000;
    allow_holistic = true;
    non_aligned_prob = 0.2;
    family_prob = 0.0;
    window_params = Window_gen.default_params;
    (* size 1 must stay drawable: batch-of-1 is the degenerate case the
       batched paths are differenced against *)
    batch_min = 1;
    batch_max = 16;
    (* budget 0 must stay drawable (and common): evict-everything is the
       degenerate case the spilled path is differenced against *)
    budget_min = 0;
    budget_max = 65_536;
  }

type t = {
  agg : Aggregate.t;
  windows : Window.t list;
  eta : int;
  horizon : int;
  events : Event.t list;
  shape : shape;
  tumbling : bool;
  batch : int;  (** nominal batch size for the batched execution paths *)
  budget : int;  (** resident-state budget (bytes) for the spilled path *)
}

let draw_windows prng cfg ~shape ~tumbling ~n =
  let set_cfg =
    {
      Set_gen.params = cfg.window_params;
      tumbling;
      period_bound = cfg.period_bound;
      max_attempts = 10_000;
    }
  in
  let gen =
    match shape with
    | Random_shape -> Set_gen.random
    | Chain_shape -> Set_gen.chain
    | Star_shape -> Set_gen.star
  in
  (* A tight period bound can make large sets undrawable; fall back to
     smaller sets rather than failing the fuzzing campaign. *)
  let rec attempt n =
    match gen prng set_cfg ~n with
    | ws -> ws
    | exception Set_gen.Generation_failed _ when n > 1 -> attempt (n - 1)
  in
  attempt n

(* Algorithm 5 only emits aligned windows (s | r, the cost model's
   footnote-4 assumption), so the paired-slicing z₂ path and the paned
   gcd path would otherwise never see a non-trivial case.  Nudging the
   range off its multiple produces genuinely non-aligned hopping
   windows; the optimizer paths are skipped for those scenarios (see
   {!Paths.applicable}). *)
let misalign prng w =
  let r = Window.range w and s = Window.slide w in
  if s < 2 then w else Window.make ~range:(r + Prng.int_in prng 1 (s - 1)) ~slide:s

let aligned t = List.for_all Window.is_aligned t.windows

let draw_events prng ~eta ~horizon =
  (* Mix stream profiles: mostly steady/varied (the model's regime),
     some bursty streams, and the occasional empty stream so the
     no-data paths stay honest. *)
  match Prng.int prng 20 with
  | 0 -> []
  | k when k <= 8 ->
      Event_gen.steady prng Event_gen.default_config ~eta ~horizon
  | k when k <= 15 ->
      Event_gen.varied prng Event_gen.default_config ~eta_max:eta ~horizon
  | _ ->
      Event_gen.spiky prng Event_gen.default_config ~eta ~spike_every:7
        ~spike_factor:4 ~horizon

let draw prng cfg =
  let g_shape, rest = Prng.split prng in
  let g_win, rest = Prng.split rest in
  let g_agg, rest = Prng.split rest in
  let g_eta, rest = Prng.split rest in
  let g_horizon, g_events = Prng.split rest in
  let shape =
    Prng.choose g_shape [ Random_shape; Chain_shape; Star_shape ]
  in
  let tumbling = Prng.bool g_shape in
  let n = Prng.int_in g_shape 1 cfg.max_windows in
  (* This draw once picked a shard count for a sharded execution path
     that no longer exists.  It is still consumed so that the batch,
     family and budget draws after it — and therefore every existing
     seed's scenario — stay exactly what they were. *)
  ignore (Prng.int_in g_shape 2 8 : int);
  (* additive on the shape generator: appending the batch draw leaves
     the window / aggregate / event streams of existing seeds untouched *)
  let batch = Prng.int_in g_shape cfg.batch_min (max cfg.batch_min cfg.batch_max) in
  let windows = draw_windows g_win cfg ~shape ~tumbling ~n in
  let windows =
    if Prng.bernoulli g_win cfg.non_aligned_prob then
      Window.dedup
        (List.map
           (fun w -> if Prng.bool g_win then misalign g_win w else w)
           windows)
    else windows
  in
  (* Window-family mutation, drawn additively from the already-consumed
     shape generator (after the batch draw) so that seeds drawn with
     [family_prob = 0] are bit-identical to pre-family scenarios.  Each
     window independently keeps its time geometry, moves to the count
     domain (same range/slide — coverage structure preserved, now over
     per-key event ordinals), or becomes a session window; mixed sets
     exercise the per-domain optimizer split and the fallback plans. *)
  let windows =
    if Prng.bernoulli g_shape cfg.family_prob then
      Window.dedup
        (List.map
           (fun w ->
             match Prng.int g_shape 4 with
             | 0 | 1 ->
                 Window.count_hop ~range:(Window.range w)
                   ~slide:(Window.slide w)
             | 2 -> Window.session ~gap:(Prng.int_in g_shape 1 12)
             | _ -> w)
           windows)
    else windows
  in
  (* Budget for the spilled path, additive on the shape generator after
     every existing draw so pre-budget seeds stay bit-identical.  A
     quarter of the draws pin the floor ([budget_min], normally 0 —
     every touched key round-trips through disk); the rest spread over
     the configured range so partial-residency clock behaviour is
     exercised too. *)
  let budget =
    if Prng.bernoulli g_shape 0.25 then cfg.budget_min
    else
      Prng.int_in g_shape cfg.budget_min (max cfg.budget_min cfg.budget_max)
  in
  let aggs =
    if cfg.allow_holistic then Aggregate.all
    else List.filter Aggregate.shareable Aggregate.all
  in
  let agg = Prng.choose g_agg aggs in
  let eta = Prng.int_in g_eta 1 cfg.eta_max in
  let horizon = Prng.int_in g_horizon cfg.horizon_min cfg.horizon_max in
  let events = draw_events g_events ~eta ~horizon in
  { agg; windows; eta; horizon; events; shape; tumbling; batch; budget }

let of_seed cfg seed = draw (Prng.create seed) cfg

let summary t =
  Printf.sprintf
    "%s over %s (%s%s), eta=%d horizon=%d |events|=%d batch=%d budget=%d"
    (Aggregate.to_string t.agg)
    ("["
    ^ String.concat "; " (List.map Window.to_string t.windows)
    ^ "]")
    (shape_to_string t.shape)
    (if List.exists (fun w -> Window.hop_domain w <> Some Window.Time) t.windows
     then ", families"
     else if t.tumbling then ", tumbling"
     else if not (aligned t) then ", non-aligned"
     else "")
    t.eta t.horizon
    (List.length t.events)
    t.batch t.budget

let pp ppf t = Format.pp_print_string ppf (summary t)

let pp_events ppf events =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
    (fun ppf e ->
      Format.fprintf ppf "(%d, %S, %g)" e.Event.time e.Event.key
        e.Event.value)
    ppf events

(* A self-contained textual repro: everything needed to reconstruct the
   scenario in a regression test without re-running the generators. *)
let to_repro t =
  Format.asprintf
    "@[<v>agg      = %s@,\
     windows  = %s@,\
     eta      = %d@,\
     horizon  = %d@,\
     batch    = %d@,\
     budget   = %d@,\
     events   = @[<hov 2>[%a]@]@]"
    (Aggregate.to_string t.agg)
    (String.concat " " (List.map Window.to_string t.windows))
    t.eta t.horizon t.batch t.budget pp_events t.events
