open Fw_window
module Combine = Fw_agg.Combine
module Pane = Fw_agg.Pane
module Swag = Fw_agg.Swag
module Aggregate = Fw_agg.Aggregate
module Vec = Fw_util.Vec
module Plan = Fw_plan.Plan
module Validate = Fw_plan.Validate
module Counter = Fw_obs.Counter
module Clock = Fw_obs.Clock
module Store = Fw_spill.Store
module Bin = Fw_spill.Bin
module Bincodec = Fw_agg.Bincodec

exception Late_event of Event.t

type mode = Naive | Incremental

(* Sub-aggregates travel between operators as runs: the states one
   node emits for one window over one interval, a slot per key, in
   emission order, held in columns ({!Combine.Cols}) so neither the
   emitter nor its consumers build a boxed state per key.  A node fills
   its own runs (its outbox) and lends each to its subscribers, which
   consume it before [forward] returns, so a run is refilled in place
   by the node's next emission. *)
type run = {
  r_window : Window.t;
  mutable r_interval : Interval.t;
  mutable r_len : int;
  mutable r_keys : string array;
  mutable r_states : Combine.Cols.t;
  mutable r_order : int array;
      (** the slots in ascending key order, once computed ([run_order]) *)
  mutable r_ordered : bool;  (** [r_order] holds this filling's order *)
}

(* A node's runs, made the first time a fire needs that many. *)
type outbox = {
  o_agg : Aggregate.t;
  o_window : Window.t;
  mutable o_runs : run array;
}

(* One message of the dispatch: raw events (the selection
   [sel.(lo .. hi-1)] of the batch's columns), a run of sub-aggregates,
   or a watermark. *)
type msg =
  | Events of { b : Batch.t; sel : int array; lo : int; hi : int }
  | Subs of run
  | Watermark of int

(* Pending instances keyed so that firing pops from the front. *)
module Fire_key = struct
  type t = { hi : int; lo : int; key : string }

  let compare a b =
    match Int.compare a.hi b.hi with
    | 0 -> (
        match Int.compare a.lo b.lo with
        | 0 -> String.compare a.key b.key
        | c -> c)
    | c -> c
end

module Pending = Map.Make (Fire_key)

(* The per-instance operator's resident fire index: instance bound [hi]
   to the keys whose instance [hi] is pending, kept out of the spill
   store so a watermark sweep never faults keys that have nothing
   due. *)
module Imap = Map.Make (Int)

(* The keys born at one bound: those raw events gave birth to, one at
   a time, and those sub-aggregate runs gave birth to, one ascending
   chunk per run. *)
type born = {
  mutable loose : string list;  (** unordered, newest first *)
  mutable chunks : string array list;  (** each ascending *)
}

(* The session operator's resident deadline index. *)
module Fset = Set.Make (struct
  type t = int * string

  let compare (h1, k1) (h2, k2) =
    match Int.compare h1 h2 with 0 -> String.compare k1 k2 | c -> c
end)

(* Per-instance execution state: every event is folded into all pending
   instances containing it (O(r/s) work per event) and an instance's
   state is complete when it fires.  This is the cost the paper's model
   prices, and the only path that supports holistic aggregates and
   sub-aggregate (window-over-window) inputs.

   Each key's pending instances live in a {!Ring} inside a
   {!Fw_spill.Store}: resident by default, spillable to disk under a
   memory budget. *)
type win_state = {
  window : Window.t;
  w_keys : Ring.t Store.t;
  w_ring : unit -> Ring.t;  (** a key's empty ring *)
  w_born : int -> unit;  (** enters [w_key]'s instance into [w_fire] *)
  w_born_run : int -> unit;
      (** collects [w_key]'s instance into [w_birth_ms]/[w_birth_keys] *)
  mutable w_key : string;  (** the key being folded *)
  w_birth_ms : int Vec.t;  (** a run's births, in birth order: instances *)
  w_birth_keys : string Vec.t;  (** ... and their keys *)
  mutable w_buckets : string Vec.t array;  (** scratch of [enter_births] *)
  mutable w_fire : born Imap.t;  (** per pending bound [hi]: its keys *)
  w_out : outbox;
  w_processed : Metrics.items;  (** the window's processed-items counter *)
  mutable wm : int;
}

(* Pane-based incremental execution state: raw events fold into the one
   open per-slide pane (O(1) per event); sealed panes feed per-key
   sliding queues ({!Fw_agg.Swag}) that answer each instance's combined
   state in O(1) amortized. *)
type pane_state = {
  p_window : Window.t;
  slide : int;
  k : int;  (** panes per instance: r / s *)
  open_pane : Pane.t;  (** accumulates pane [cur_pane*s, (cur_pane+1)*s) *)
  mutable cur_pane : int;
  queues : Swag.t Store.t;
  p_out : outbox;  (** a roll's runs, one per fired instance *)
  p_processed : Metrics.items;  (** the window's processed-items counter *)
  mutable p_wm : int;
}

(* Count-window (ROWS frame) execution state: instance [m] of key [k]
   covers that key's event {e ordinals} [[m·s, m·s + r)], so the
   operator is watermark-free — an instance completes, and fires, the
   moment ordinal [m·s + r − 1] of its key arrives.  Per-key pending
   instances are keyed by their ordinal upper bound [hi] ([lo] is
   always [hi − r]).  Sub-fed nodes (WCG rewrites within the count
   domain) track the key's ordinal high-water from arriving
   sub-intervals instead: upstream emits per key in ascending [hi], so
   the final covering sub of an instance — the one ending exactly at
   the instance's [hi] — arrives last and doubles as the completion
   signal. *)
type cwin_key = {
  mutable seen : int;  (** ordinal high-water: events seen (stream-fed)
                           or max sub interval end (sub-fed) *)
  kpend : Ring.t;  (** pending instances *)
}

type cwin_state = {
  c_window : Window.t;
  c_keys : cwin_key Store.t;
  c_init : unit -> cwin_key;  (** a key's fresh tracker *)
  c_out : outbox;  (** a fire's runs, one per instance *)
  c_processed : Metrics.items;  (** the window's processed-items counter *)
}

(* Session-window execution state: one open (growable) session per key
   plus rotated/expired sessions awaiting their deadline.  Join and
   rotation decisions depend only on the event sequence (an event at
   [t] joins iff [t < last + gap]), never on watermarks, so coalescing
   per-event watermarks to batch-segment boundaries cannot change
   which sessions exist — only when they are emitted, which [close]'s
   row sort makes invisible. *)
type open_session = {
  mutable s_first : int;
  mutable s_last : int;
  s_state : Combine.Cols.t;  (** one slot, folded in place *)
  mutable s_items : int;
}

type session_state = {
  s_window : Window.t;
  s_gap : int;
  s_open : open_session Store.t;
  s_codec : open_session Store.codec;  (** [s_open]'s, for the pending ones *)
  s_init : unit -> open_session;  (** a new key's empty record *)
  mutable s_deadlines : Fset.t;
      (** resident index of (last + gap, key) per open session, so a
          watermark sweep faults in only the keys actually expiring *)
  mutable s_pending : (Combine.state * int) Pending.t;
      (** rotated/expired sessions, keyed {hi = last + gap; lo = first} *)
  s_out : outbox;
  s_processed : Metrics.items;  (** the window's processed-items counter *)
  mutable s_wm : int;
}

(* --- store codecs for operator state -------------------------------- *)

(* The one encoding of each per-key value the engine stores: evicted
   entries and engine images ({!export}) are both written with exactly
   these (floats as IEEE bit patterns), so a faulted or restored entry
   is bit-identical to the original.  Weights are resident-size
   estimates that drive eviction accounting only, never results. *)

let win_codec agg window : Ring.t Store.codec =
  let range = Window.range window and slide = Window.slide window in
  {
    Store.kind = Bincodec.kind_win;
    enc = Ring.write ~range ~slide;
    dec = Ring.read agg ~range ~slide;
    weight = Ring.weight;
  }

let cwin_codec agg window : cwin_key Store.codec =
  let range = Window.range window and slide = Window.slide window in
  {
    Store.kind = Bincodec.kind_cwin;
    enc =
      (fun b kc ->
        Bin.w_i64 b kc.seen;
        Ring.write b ~range ~slide kc.kpend);
    dec =
      (fun r ->
        let seen = Bin.r_i64 r in
        let kpend = Ring.read agg ~range ~slide r in
        { seen; kpend });
    weight = (fun kc -> 16 + Ring.weight kc.kpend);
  }

(* The slot codec's bytes and check ({!Bincodec.slot_codec}) inside
   the session's record. *)
let session_codec agg : open_session Store.codec =
  let slot = Bincodec.slot_codec agg in
  {
    Store.kind = Bincodec.kind_session;
    enc =
      (fun b os ->
        Bin.w_i64 b os.s_first;
        Bin.w_i64 b os.s_last;
        slot.Store.enc b os.s_state;
        Bin.w_i64 b os.s_items);
    dec =
      (fun r ->
        let s_first = Bin.r_i64 r in
        let s_last = Bin.r_i64 r in
        let s_state = slot.Store.dec r in
        let s_items = Bin.r_i64 r in
        { s_first; s_last; s_state; s_items });
    weight = (fun os -> 64 + slot.Store.weight os.s_state);
  }

(* Flat operator-state array: one cell per plan node, dispatched with a
   single match in [deliver] instead of an array of closures. *)
type node_state =
  | N_forward  (** source, multicast *)
  | N_filter of Fw_plan.Predicate.t
  | N_union of { sink : bool }
  | N_win of win_state
  | N_pane of pane_state
  | N_cwin of cwin_state
  | N_session of session_state

(* One output window's result rows: the runs of the emission sequence
   they were emitted in, and whether each row is at least its
   predecessor in [Row.compare] so far. *)
type bucket = {
  b_window : Window.t;
  b_runs : int Vec.t;  (** closed runs, as [start; stop) index pairs *)
  mutable b_ascending : bool;
}

type t = {
  plan : Plan.t;
  agg : Aggregate.t;
  mode : mode;
  spill : Fw_spill.Pool.t option;
      (** memory-budget pool shared by every operator store (owned by
          the caller, never closed here); [None] = all-resident *)
  metrics : Metrics.t;
  states : node_state array;
  obs : Metrics.node_stats array;  (** per-node stats, same index as states *)
  observe : bool;
  sample_mask : int;
      (** activation-latency sampling: clock every (mask+1)-th firing *)
  subs : int array array;
  sources : int array;
  mutable source_wm : int;
  mutable wm_wall : int;
      (** wall ns when the current watermark's broadcast began (0 until
          the first observed broadcast) — the fire-delay baseline.
          Deliberately absent from the export: it is transient
          wall-clock state, and checkpoints stay deterministic. *)
  rows : Row.t Vec.t;  (** every result row, in emission order *)
  mutable buckets : bucket array;
      (** the same rows filed by window: one bucket per distinct window,
          in [Window.compare] order *)
  mutable run_slot : int;  (** the bucket of the open run, or -1 *)
  mutable run_start : int;  (** index of the open run's first row *)
  scratch : Batch.t;  (** reused one-event batch backing the [feed] wrapper *)
  mutable iota : int array;  (** identity selection [0; 1; ...] for batch roots *)
  mutable closed : bool;
}

let subscribers plan =
  let nodes = Plan.nodes plan in
  let subs = Array.make (Array.length nodes) [] in
  Array.iteri
    (fun id op ->
      let inputs =
        match op with
        | Plan.Source -> []
        | Plan.Multicast i -> [ i ]
        | Plan.Filter { input; _ } -> [ input ]
        | Plan.Win_agg { input; _ } -> [ input ]
        | Plan.Union is -> is
      in
      List.iter (fun i -> subs.(i) <- id :: subs.(i)) inputs)
    nodes;
  Array.map (fun l -> Array.of_list (List.rev l)) subs

(* Instance indices of [w] whose interval [[m·s, m·s + r)] contains
   time [t >= 0]: the contiguous range [(first, last)], never empty
   since [s <= r], with [last = t / s].  Note that OCaml's [/] truncates
   toward zero, so the lower bound must special-case [t < r] instead of
   relying on [(t - r) / s]. *)
let first_containing w t =
  let r = Window.range w in
  if t < r then 0 else ((t - r) / Window.slide w) + 1

let containing_range w t = (first_containing w t, t / Window.slide w)

(* Instance indices of [w] whose interval includes [[u, v)] entirely:
   the contiguous range [(first, last)], empty when [first > last]
   (always so when [v - u > r]: then [first·s >= v - r > u]). *)
let enclosing_range w ~lo:u ~hi:v =
  let r = Window.range w and s = Window.slide w in
  ((if v - r <= 0 then 0 else ((v - r - 1) / s) + 1), u / s)

let range_list (first, last) =
  List.init (max 0 (last - first + 1)) (( + ) first)
let instances_containing w t = range_list (containing_range w t)
let instances_enclosing w ~lo ~hi = range_list (enclosing_range w ~lo ~hi)

(* Span recording for a window activation: latencies are sampled (the
   clock call is the only instrumentation cost that isn't a plain field
   increment), every 16th activation normally, every activation when a
   trace is attached so short traced runs aren't empty. *)
let trace_span t ~name ~id ~start_ns ~dur_ns ~items_in ~items_out ~window =
  match Metrics.trace t.metrics with
  | None -> ()
  | Some tr ->
      Fw_obs.Trace.record tr
        {
          Fw_obs.Trace.name;
          node = id;
          start_ns;
          dur_ns;
          items_in;
          items_out;
          attrs = [ ("window", Window.to_string window) ];
        }

(* Count one firing activation of node [id]; [true] when it is one of
   the sampled ones, whose latency the caller clocks. *)
let activation t id =
  let ns = t.obs.(id) in
  let sampled = t.observe && ns.Metrics.activations land t.sample_mask = 0 in
  ns.Metrics.activations <- ns.Metrics.activations + 1;
  sampled

(* Close a sampled activation begun at [t0]: its duration, its delay
   behind the watermark broadcast that triggered it, and a span. *)
let activation_sample t id ~t0 ~name ~items_in ~items_out ~window =
  let ns = t.obs.(id) in
  let dur = Clock.elapsed_ns ~since:t0 in
  Fw_obs.Histogram.record ns.Metrics.fire_ns dur;
  if t.wm_wall > 0 then
    Fw_obs.Histogram.record ns.Metrics.fire_delay_ns (max 0 (t0 - t.wm_wall));
  trace_span t ~name ~id ~start_ns:t0 ~dur_ns:dur ~items_in ~items_out ~window

(* --- runs ------------------------------------------------------------ *)

let outbox agg window = { o_agg = agg; o_window = window; o_runs = [||] }

(* Run [n] of the outbox, emptied for a filling over [interval]. *)
let out_run ob n interval =
  if n >= Array.length ob.o_runs then
    ob.o_runs <-
      Array.init (n + 1) (fun i ->
          if i < Array.length ob.o_runs then ob.o_runs.(i)
          else
            {
              r_window = ob.o_window;
              r_interval = interval;
              r_len = 0;
              r_keys = Array.make 8 "";
              r_states = Combine.Cols.create ob.o_agg 8;
              r_order = [||];
              r_ordered = false;
            });
  let r = ob.o_runs.(n) in
  r.r_interval <- interval;
  r.r_len <- 0;
  r.r_ordered <- false;
  r

(* Append a slot for [key]; its index, whose state the caller writes
   (after this call: a full run moves to wider columns). *)
let run_push r key =
  let i = r.r_len in
  let cap = Array.length r.r_keys in
  if i = cap then begin
    let keys = Array.make (2 * cap) "" in
    Array.blit r.r_keys 0 keys 0 cap;
    r.r_keys <- keys;
    r.r_states <- Combine.Cols.grow r.r_states (2 * cap)
  end;
  r.r_keys.(i) <- key;
  r.r_len <- i + 1;
  i

(* Empty a run its consumers are done with, dropping what its slots
   reference (keys, a MEDIAN slot's values), so an outbox holds no
   garbage alive between fires: only its arrays, as wide as the
   node's widest fire. *)
let run_release r =
  for i = 0 to r.r_len - 1 do
    r.r_keys.(i) <- "";
    Combine.Cols.clear r.r_states i
  done;
  r.r_len <- 0

(* The run's slots in ascending key order, computed once per filling
   and shared by every consumer.  A run's keys are distinct; a
   per-instance fire emits them ascending already (an O(n) check), a
   pane roll in store visit order (one sort). *)
let run_order r =
  if not r.r_ordered then begin
    let n = r.r_len and keys = r.r_keys in
    if Array.length r.r_order < n then
      r.r_order <- Array.make (Array.length keys) 0;
    let o = r.r_order in
    for i = 0 to n - 1 do
      o.(i) <- i
    done;
    let rec ascending i =
      i >= n || (String.compare keys.(i - 1) keys.(i) < 0 && ascending (i + 1))
    in
    if not (ascending 1) then begin
      let sorted = Array.sub o 0 n in
      Array.sort (fun a b -> String.compare keys.(a) keys.(b)) sorted;
      Array.blit sorted 0 o 0 n
    end;
    r.r_ordered <- true
  end;
  r.r_order

(* --- the per-instance operator's fire index ------------------------- *)

(* Bound [hi]'s births, made empty the first time [hi] is born. *)
let bound st hi =
  match Imap.find_opt hi st.w_fire with
  | Some b -> b
  | None ->
      let b = { loose = []; chunks = [] } in
      st.w_fire <- Imap.add hi b st.w_fire;
      b

(* Enter the birth of [key]'s instance [m] into the fire index. *)
let index_birth st key m =
  let b = bound st ((m * Window.slide st.window) + Window.range st.window) in
  b.loose <- key :: b.loose

(* Loose keys in ascending order.  Births prepend, and an image loads
   its keys in ascending order, so the list is often strictly
   descending: an O(n) check and a reversal then give exactly what the
   sort would. *)
let ascending_keys keys =
  let rec descending = function
    | a :: (b :: _ as rest) -> String.compare a b > 0 && descending rest
    | [ _ ] | [] -> true
  in
  if descending keys then List.rev keys else List.sort String.compare keys

(* A bound's keys in ascending order.  A window-fed node's bound is
   usually one run's chunk, used as it is; anything else is sorted. *)
let bound_keys b =
  match (b.loose, b.chunks) with
  | [], [ c ] -> c
  | loose, [] -> Array.of_list (ascending_keys loose)
  | loose, chunks ->
      let a = Array.concat (Array.of_list loose :: chunks) in
      Array.sort String.compare a;
      a

(* Enter a run's births into the fire index, one chunk per instance.
   The run folded in ascending key order, so each instance's keys are
   collected ascending.  Births usually all land on one instance (the
   newest each key reached); otherwise they are bucketed by instance. *)
let enter_births st =
  let n = Vec.length st.w_birth_keys in
  if n > 0 then begin
    let ms = Vec.unsafe_data st.w_birth_ms
    and keys = Vec.unsafe_data st.w_birth_keys in
    let lo = ref ms.(0) and hi = ref ms.(0) in
    for i = 1 to n - 1 do
      if ms.(i) < !lo then lo := ms.(i);
      if ms.(i) > !hi then hi := ms.(i)
    done;
    let slide = Window.slide st.window and range = Window.range st.window in
    let enter m chunk =
      let b = bound st ((m * slide) + range) in
      b.chunks <- chunk :: b.chunks
    in
    if !lo = !hi then enter !lo (Array.sub keys 0 n)
    else begin
      let span = !hi - !lo + 1 in
      let have = Array.length st.w_buckets in
      if have < span then
        st.w_buckets <-
          Array.init span (fun k ->
              if k < have then st.w_buckets.(k) else Vec.create ());
      for i = 0 to n - 1 do
        Vec.push st.w_buckets.(ms.(i) - !lo) keys.(i)
      done;
      for k = 0 to span - 1 do
        let v = st.w_buckets.(k) in
        if Vec.length v > 0 then begin
          enter (!lo + k) (Array.sub (Vec.unsafe_data v) 0 (Vec.length v));
          Vec.reset v
        end
      done
    end;
    Vec.reset st.w_birth_ms;
    Vec.reset st.w_birth_keys
  end

(* --- the result sink ------------------------------------------------ *)

(* The slot of window [w]'s bucket, made the first time [w] is seen. *)
let bucket_slot t w =
  let bs = t.buckets in
  let n = Array.length bs in
  let rec slot j =
    if j < n && Window.compare bs.(j).b_window w < 0 then slot (j + 1) else j
  in
  let j = slot 0 in
  if j = n || Window.compare bs.(j).b_window w <> 0 then begin
    let b = { b_window = w; b_runs = Vec.create (); b_ascending = true } in
    t.buckets <-
      Array.init (n + 1) (fun k ->
          if k < j then bs.(k) else if k = j then b else bs.(k - 1))
  end;
  j

(* Close the open run at [stop], the index of the next row. *)
let end_run t stop =
  if t.run_slot >= 0 then begin
    let b = t.buckets.(t.run_slot) in
    Vec.push b.b_runs t.run_start;
    Vec.push b.b_runs stop;
    t.run_slot <- -1
  end

(* Emit a result row.  A fire emits its rows in a run of one window, so
   a row whose window is physically the open run's extends it and is
   checked against the row before it; any other row closes the run and
   opens one in its window's bucket, checked against that bucket's last
   row.  One [Row.compare] per row either way. *)
let sink_row t (row : Row.t) =
  let i = Vec.length t.rows in
  let slot = t.run_slot in
  if slot >= 0 && t.buckets.(slot).b_window == row.window then begin
    let b = t.buckets.(slot) in
    if b.b_ascending && Row.compare (Vec.get t.rows (i - 1)) row > 0 then
      b.b_ascending <- false
  end
  else begin
    end_run t i;
    let j = bucket_slot t row.window in
    let b = t.buckets.(j) in
    let n = Vec.length b.b_runs in
    if b.b_ascending && n > 0
       && Row.compare (Vec.get t.rows (Vec.get b.b_runs (n - 1) - 1)) row > 0
    then b.b_ascending <- false;
    t.run_slot <- j;
    t.run_start <- i
  end;
  Vec.push t.rows row

(* The rows of a run at the output union, one per slot in run order. *)
let sink_run t r =
  for i = 0 to r.r_len - 1 do
    sink_row t
      {
        Row.window = r.r_window;
        interval = r.r_interval;
        key = r.r_keys.(i);
        value = Combine.Cols.finalize r.r_states i;
      }
  done

(* Every row in [Row.compare] order, ties in emission order: exactly
   [Row.sort] of the emission sequence.  Rows of distinct windows never
   tie, so the buckets concatenate in slot order; a bucket that stayed
   ascending is already its own stable sort, any other is sorted
   stably. *)
let sorted_rows t =
  end_run t (Vec.length t.rows);
  let data = Vec.unsafe_data t.rows in
  Array.fold_right
    (fun b acc ->
      let runs = Vec.unsafe_data b.b_runs in
      let a =
        Array.concat
          (List.init
             (Vec.length b.b_runs / 2)
             (fun r ->
               Array.sub data runs.(2 * r) (runs.((2 * r) + 1) - runs.(2 * r))))
      in
      if not b.b_ascending then Array.stable_sort Row.compare a;
      Array.fold_right List.cons a acc)
    t.buckets []

(* --- dispatch ------------------------------------------------------- *)

(* One dispatch path for all traffic: [deliver] visits a node once per
   message, whether it carries a batch segment of raw events, a run of
   sub-aggregates or a watermark.  Raw events reach operators as
   columnar selections, sub-aggregates as runs, so a node visit is
   amortized over a whole segment or a whole fired instance; only
   watermarks travel one at a time.  Per-node [rows_in]/[rows_out] add
   the message's length. *)
let msg_length = function
  | Events { lo; hi; _ } -> hi - lo
  | Subs r -> r.r_len
  | Watermark _ -> 0

let rec deliver t id msg =
  match msg with
  | Events { lo; hi; _ } when hi <= lo -> ()
  | Events _ | Subs _ | Watermark _ -> (
      if t.observe then Counter.add t.obs.(id).Metrics.rows_in (msg_length msg);
      match t.states.(id) with
      | N_forward -> forward t id msg
      | N_filter pred -> (
          match msg with
          | Events { b; sel; lo; hi } ->
              let times = Batch.times b
              and keys = Batch.keys b
              and values = Batch.values b in
              let keep = Array.make (hi - lo) 0 in
              let m = ref 0 in
              for i = lo to hi - 1 do
                let j = sel.(i) in
                if
                  Fw_plan.Predicate.eval pred ~key:keys.(j) ~value:values.(j)
                    ~time:times.(j)
                then begin
                  keep.(!m) <- j;
                  incr m
                end
              done;
              forward t id (Events { b; sel = keep; lo = 0; hi = !m })
          | Subs _ | Watermark _ ->
              (* the predicate reads raw events; sub-aggregates and
                 watermarks pass through *)
              forward t id msg)
      | N_union { sink } ->
          (* The union merges its inputs; when it is the plan output it
             also acts as the result sink, where sub-aggregate runs
             become rows (raw events never do).  Watermarks of the
             separate inputs all derive from the single source sweep,
             so they carry the same value and are simply forwarded. *)
          (match msg with
          | Subs r when sink -> sink_run t r
          | Events _ | Subs _ | Watermark _ -> ());
          forward t id msg
      | N_win st -> win_deliver t id st msg
      | N_pane ps -> pane_deliver t id ps msg
      | N_cwin st -> cwin_deliver t id st msg
      | N_session st -> session_deliver t id st msg)

and forward t id msg =
  if t.observe then Counter.add t.obs.(id).Metrics.rows_out (msg_length msg);
  let subs = t.subs.(id) in
  for i = 0 to Array.length subs - 1 do
    deliver t subs.(i) msg
  done

(* Forward run [r] of node [id]'s outbox, then release it. *)
and emit t id r =
  forward t id (Subs r);
  run_release r

(* --- per-instance (naive) window operator --------------------------- *)

(* Access pattern: an item (a raw event or a slot of an upstream run)
   folds into its whole contiguous instance range [first .. last] under
   {e one} store access for its key ({!win_ring}, then [Store.commit]),
   in place in the key's {!Ring}; the resident fire index learns a
   (hi, key) pair only when that access gives birth to the instance
   ([w_born] or [w_born_run], which read the key from [w_key]: no
   closure per item), and loses it only when the instance fires.

   Items are tallied per pending instance and reported to the metrics
   when the instance fires, so the counters measure exactly the work of
   {e complete} instances — the quantity the analytic cost model prices.
   Insertions into instances that straddle the closing horizon are not
   charged. *)
and win_ring st key =
  st.w_key <- key;
  Store.access st.w_keys key ~init:st.w_ring

(* Pop the due instance [hi] of [key] into slot [i] of [dst] under one
   store access, closed by [Store.commit], or by [Store.remove] when the
   ring is left empty; its item count. *)
and win_extract st key hi dst i =
  let rg = win_ring st key in
  let due =
    (not (Ring.is_empty rg))
    && (Ring.front rg * Window.slide st.window) + Window.range st.window = hi
  in
  let items = if due then Ring.pop_into rg dst i else 0 in
  if Ring.is_empty rg then Store.remove st.w_keys key
  else Store.commit st.w_keys;
  if not due then invalid_arg "Stream_exec: fire index out of sync with store";
  items

(* Fire every instance due at [wm]: the due bounds leave the fire index
   in ascending order, each with its keys in ascending order, one run
   per bound, which is the ascending (hi, key) order of the emissions.
   The cheap emptiness probe comes first, so the clock and the counters
   only move when at least one instance actually fires, and a watermark
   that fires nothing touches no spilled state. *)
and win_fire t id st wm =
  match Imap.min_binding_opt st.w_fire with
  | Some (hi0, _) when hi0 <= wm ->
      let sampled = activation t id in
      let t0 = if sampled then Clock.now_ns () else 0 in
      let fired = ref 0 and items_tot = ref 0 in
      let range = Window.range st.window in
      let rec go () =
        match Imap.min_binding_opt st.w_fire with
        | Some (hi, b) when hi <= wm ->
            st.w_fire <- Imap.remove hi st.w_fire;
            let r = out_run st.w_out 0 (Interval.make ~lo:(hi - range) ~hi) in
            let keys = bound_keys b and items = ref 0 in
            for k = 0 to Array.length keys - 1 do
              let i = run_push r keys.(k) in
              items := !items + win_extract st keys.(k) hi r.r_states i
            done;
            Metrics.add_items st.w_processed !items;
            fired := !fired + r.r_len;
            items_tot := !items_tot + !items;
            emit t id r;
            go ()
        | Some _ | None -> ()
      in
      go ();
      if t.observe then Counter.add t.obs.(id).Metrics.fires !fired;
      if sampled then
        activation_sample t id ~t0 ~name:"win-fire" ~items_in:!items_tot
          ~items_out:!fired ~window:st.window
  | Some _ | None -> ()

(* A run's slots share its interval, so they share the instance range
   they fold into.  They fold in ascending key order ({!run_order}), so
   the keys each instance gains are collected in that order and enter
   the fire index as one chunk per instance ({!enter_births}): a fire
   then needs no sort. *)
and win_fold_run st r =
  let first, last =
    enclosing_range st.window ~lo:(Interval.lo r.r_interval)
      ~hi:(Interval.hi r.r_interval)
  in
  if first <= last then begin
    let order = run_order r in
    for k = 0 to r.r_len - 1 do
      let i = order.(k) in
      Ring.fold_slot
        (win_ring st r.r_keys.(i))
        ~first ~last r.r_states i ~born:st.w_born_run;
      Store.commit st.w_keys
    done;
    enter_births st
  end

(* Per-instance fold of a batch segment: each event folds into its
   whole instance range with one store access ({!win_ring}). *)
and bwin_add st b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  let slide = Window.slide st.window in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    let time = times.(j) in
    Ring.fold_value (win_ring st keys.(j))
      ~first:(first_containing st.window time) ~last:(time / slide)
      values j ~born:st.w_born;
    Store.commit st.w_keys
  done

and win_deliver t id st msg =
  match msg with
  | Events { b; sel; lo; hi } -> bwin_add st b sel lo hi
  | Subs r -> win_fold_run st r
  | Watermark w ->
      if w > st.wm then begin
        st.wm <- w;
        win_fire t id st w;
        forward t id (Watermark w)
      end

(* --- pane-based incremental window operator ------------------------- *)

(* Roll the pane ring to [upto]: seal pane [p0 = cur_pane] and fire
   every instance [mlo .. mhi] the roll completes (instance [m] = panes
   [m, m+k)).  Events arrive in order and every event rolls the
   operator before it folds, so [p0] is the only pane of the roll that
   can hold data: the roll makes {e one} store access per key, for its
   queue and for its open-pane state, however many boundaries it
   crosses.

   - Pass 1 visits every queue: it takes the key's open-pane state
     (if any), pushes it at [p0] and slides once per due instance.
   - Pass 2 creates the queues of the open-pane keys left over.

   A queue holds panes up to [p0] only, so it answers at most the [k]
   instances [mlo .. p0] and drains at the first slide past them: at
   most [k+1] slides per key, and a drained key is dropped.  The
   answers fill one run per instance, forwarded after both passes in
   ascending [m], so each node's rows stay in ascending instance order
   (within an instance, keys come in visit order).  The metrics record
   the final-combine work: the pane states merged per fired
   instance. *)
and pane_roll t id ps ~upto =
  (* Same emptiness probe as [win_fire]: no seal pending, no clock. *)
  if (ps.cur_pane + 1) * ps.slide <= upto then begin
    let ns = t.obs.(id) in
    let sampled = activation t id in
    let t0 = if sampled then Clock.now_ns () else 0 in
    let p0 = ps.cur_pane and next = upto / ps.slide in
    let mlo = max 0 (p0 + 1 - ps.k) and mhi = next - ps.k in
    let n = max 0 (min mhi p0 - mlo + 1) in
    let range = Window.range ps.p_window in
    for i = 0 to n - 1 do
      let lo = (mlo + i) * ps.slide in
      ignore (out_run ps.p_out i (Interval.make ~lo ~hi:(lo + range)))
    done;
    let items = Array.make n 0 in
    let evicted = ref 0 and dead = ref [] in
    (* The queue is pinned by [Store.iter] in pass 1 and accessed in
       pass 2, so the in-place push and slides can never race an
       eviction of it. *)
    let push_and_slide key q state =
      Option.iter (Swag.push q ~idx:p0) state;
      let before = Swag.length q in
      let rec go m =
        if m <= mhi then
          match Swag.slide q ~below:m with
          | None -> dead := key :: !dead
          | Some st ->
              let i = m - mlo in
              let r = ps.p_out.o_runs.(i) in
              let j = run_push r key in
              Combine.Cols.set r.r_states j st;
              items.(i) <- items.(i) + Swag.length q;
              go (m + 1)
      in
      go mlo;
      evicted := !evicted + before - Swag.length q
    in
    let flushed = if Pane.is_empty ps.open_pane then 0 else 1 in
    Store.iter
      (fun key q -> push_and_slide key q (Pane.take ps.open_pane key))
      ps.queues;
    let fresh () = Swag.create t.agg in
    Pane.iter
      (fun key state ->
        push_and_slide key (Store.access ps.queues key ~init:fresh) (Some state);
        Store.commit ps.queues)
      ps.open_pane;
    Pane.clear ps.open_pane;
    List.iter (Store.remove ps.queues) !dead;
    ps.cur_pane <- next;
    let fired = ref 0 and items_tot = ref 0 in
    for i = 0 to n - 1 do
      let r = ps.p_out.o_runs.(i) in
      if items.(i) > 0 then begin
        incr fired;
        items_tot := !items_tot + items.(i);
        if r.r_len > 0 then forward t id (Subs r)
      end;
      run_release r
    done;
    if !items_tot > 0 then Metrics.add_items ps.p_processed !items_tot;
    if t.observe then begin
      Counter.add ns.Metrics.swag_evictions !evicted;
      Counter.add ns.Metrics.fires !fired;
      Counter.add ns.Metrics.pane_flushes flushed
    end;
    if sampled then
      activation_sample t id ~t0 ~name:"pane-roll" ~items_in:flushed
        ~items_out:!fired ~window:ps.p_window
  end

(* Pane fold of a batch segment: roll once per pane boundary, then
   absorb the maximal run landing in the open pane with one columnar
   {!Pane.add_run} — the events between two boundaries would each have
   hit [pane_roll] as a no-op in the per-event path. *)
and bpane_add t id ps b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  let i = ref lo in
  while !i < hi do
    pane_roll t id ps ~upto:times.(sel.(!i));
    let bound = (ps.cur_pane + 1) * ps.slide in
    let j = ref (!i + 1) in
    while !j < hi && times.(sel.(!j)) < bound do
      incr j
    done;
    Pane.add_run ps.open_pane ~keys ~values ~sel ~lo:!i ~hi:!j;
    i := !j
  done

and pane_deliver t id ps msg =
  match msg with
  | Events { b; sel; lo; hi } -> bpane_add t id ps b sel lo hi
  | Subs _ ->
      (* [create] only assigns pane states to windows reading the raw
         stream. *)
      invalid_arg "Stream_exec: pane-mode window fed sub-aggregates"
  | Watermark w ->
      if w > ps.p_wm then begin
        ps.p_wm <- w;
        pane_roll t id ps ~upto:w;
        forward t id (Watermark w)
      end

(* --- count-window (ROWS frame) operator ----------------------------- *)

(* The per-item step of a key's tracker, [kc], just folded under
   [Store.access]: pop every pending instance whose ordinal upper bound
   the key has reached into a run of its own, oldest first, close the
   access with [Store.commit], then forward the runs in that order.
   Forwarding may touch other stores of the pool, so it waits for the
   commit.  A {e complete} stream-fed instance folded exactly [r] items
   and a sub-fed one exactly its covering multiplier, so the metrics
   measure the same quantity the cost model prices.  Incomplete
   instances (the key never reaches [hi]) never fire. *)
and cwin_fire t id st key kc =
  let range = Window.range st.c_window and slide = Window.slide st.c_window in
  let due = ref 0 and items = ref 0 in
  while
    (not (Ring.is_empty kc.kpend))
    && (Ring.front kc.kpend * slide) + range <= kc.seen
  do
    let hi = (Ring.front kc.kpend * slide) + range in
    let r = out_run st.c_out !due (Interval.make ~lo:(hi - range) ~hi) in
    let i = run_push r key in
    items := !items + Ring.pop_into kc.kpend r.r_states i;
    incr due
  done;
  Store.commit st.c_keys;
  if !due > 0 then begin
    let sampled = activation t id in
    let t0 = if sampled then Clock.now_ns () else 0 in
    Metrics.add_items st.c_processed !items;
    for n = 0 to !due - 1 do
      emit t id st.c_out.o_runs.(n)
    done;
    if t.observe then Counter.add t.obs.(id).Metrics.fires !due;
    if sampled then
      activation_sample t id ~t0 ~name:"count-fire" ~items_in:!items
        ~items_out:!due ~window:st.c_window
  end

(* Count-window fold of a batch segment: firing happens inside the
   event loop (instances complete on arrival, not at punctuation), so
   downstream consumers see sub-aggregates in exactly the per-event
   order — byte-identity at any batch size is structural, not argued. *)
and bcwin_add t id st b sel lo hi =
  let keys = Batch.keys b
  and values = Batch.values b in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    let key = keys.(j) in
    let kc = Store.access st.c_keys key ~init:st.c_init in
    let n = kc.seen in
    kc.seen <- n + 1;
    Ring.fold_value kc.kpend
      ~first:(first_containing st.c_window n)
      ~last:(n / Window.slide st.c_window)
      values j ~born:ignore;
    cwin_fire t id st key kc
  done

and cwin_deliver t id st msg =
  match msg with
  | Events { b; sel; lo; hi } -> bcwin_add t id st b sel lo hi
  | Subs r ->
      (* Sub intervals live in the same per-key ordinal space: each
         slot, in run order, folds into every enclosing downstream
         instance, then advances its key's high-water to the sub's end
         and fires what that completes. *)
      let first, last =
        enclosing_range st.c_window ~lo:(Interval.lo r.r_interval)
          ~hi:(Interval.hi r.r_interval)
      in
      let hi = Interval.hi r.r_interval in
      for i = 0 to r.r_len - 1 do
        let key = r.r_keys.(i) in
        let kc = Store.access st.c_keys key ~init:st.c_init in
        Ring.fold_slot kc.kpend ~first ~last r.r_states i ~born:ignore;
        if hi > kc.seen then kc.seen <- hi;
        cwin_fire t id st key kc
      done
  | Watermark w ->
      (* count instances are watermark-free; punctuation passes through
         for any time-domain consumers downstream of the union *)
      forward t id (Watermark w)

(* --- session-window operator ----------------------------------------- *)

(* Move [key]'s open session [os] into the pending (deadline-ordered)
   map: its state is copied out of the record's slot, so the caller may
   then reuse or drop the record. *)
and session_rotate st key os =
  st.s_deadlines <- Fset.remove (os.s_last + st.s_gap, key) st.s_deadlines;
  let fk = { Fire_key.hi = os.s_last + st.s_gap; lo = os.s_first; key } in
  st.s_pending <-
    Pending.add fk (Combine.Cols.get os.s_state 0, os.s_items) st.s_pending

(* An event at [tm] joins its key's open session iff it lands strictly
   before the session's deadline [last + gap]; otherwise the old
   session is rotated out and a fresh one opens.  Purely event-driven:
   no watermark can change this decision.  One [Store.access] finds the
   open session, or makes an empty record ([s_items = 0]) for a new key;
   a join folds the value into the record's slot in place, a rotation
   moves the old session out and restarts the record, and
   [Store.commit] closes the access.  The deadline index tracks every
   [s_last] move. *)
and session_add st key tm values j =
  let os = Store.access st.s_open key ~init:st.s_init in
  if os.s_items > 0 && tm < os.s_last + st.s_gap then begin
    if tm > os.s_last then begin
      st.s_deadlines <- Fset.remove (os.s_last + st.s_gap, key) st.s_deadlines;
      os.s_last <- tm;
      st.s_deadlines <- Fset.add (tm + st.s_gap, key) st.s_deadlines
    end;
    Combine.Cols.add os.s_state 0 values j;
    os.s_items <- os.s_items + 1
  end
  else begin
    if os.s_items > 0 then session_rotate st key os;
    os.s_first <- tm;
    os.s_last <- tm;
    Combine.Cols.of_value os.s_state 0 values j;
    os.s_items <- 1;
    st.s_deadlines <- Fset.add (tm + st.s_gap, key) st.s_deadlines
  end;
  Store.commit st.s_open

(* Session fold of a batch segment: join/rotate per event
   (order-dependent but watermark-free); emission happens at the
   segment's trailing watermark. *)
and bsession_add st b sel lo hi =
  let times = Batch.times b
  and keys = Batch.keys b
  and values = Batch.values b in
  for i = lo to hi - 1 do
    let j = sel.(i) in
    session_add st keys.(j) times.(j) values j
  done

(* Watermark [wm]: first expire open sessions whose deadline passed
   (no future event has time < wm, so they can never be joined again),
   then emit every pending session whose deadline is due, in ascending
   (deadline, first, key) order: consecutive sessions with the same
   interval share a run.  Expiry walks the resident deadline index, so
   only the keys actually expiring are faulted in — a watermark sweep
   over a mostly-idle key space touches no spilled state. *)
and session_advance t id st wm =
  let rec expire () =
    match Fset.min_elt_opt st.s_deadlines with
    | Some ((dl, key) as e) when dl <= wm ->
        (match Store.find st.s_open key with
        | Some os when os.s_last + st.s_gap = dl ->
            Store.remove st.s_open key;
            session_rotate st key os
        | Some _ | None ->
            (* defensive: a stale index entry must not loop forever *)
            st.s_deadlines <- Fset.remove e st.s_deadlines);
        expire ()
    | Some _ | None -> ()
  in
  expire ();
  match Pending.min_binding_opt st.s_pending with
  | Some (fk0, _) when fk0.Fire_key.hi <= wm ->
      let sampled = activation t id in
      let t0 = if sampled then Clock.now_ns () else 0 in
      let fired = ref 0 and items_tot = ref 0 and run_items = ref 0 in
      let interval (fk : Fire_key.t) =
        Interval.make ~lo:fk.Fire_key.lo ~hi:fk.Fire_key.hi
      in
      let r = out_run st.s_out 0 (interval fk0) in
      let flush () =
        if r.r_len > 0 then begin
          Metrics.add_items st.s_processed !run_items;
          run_items := 0;
          emit t id r
        end
      in
      let rec go () =
        match Pending.min_binding_opt st.s_pending with
        | Some (fk, (state, items)) when fk.Fire_key.hi <= wm ->
            st.s_pending <- Pending.remove fk st.s_pending;
            incr fired;
            items_tot := !items_tot + items;
            if
              Interval.lo r.r_interval <> fk.Fire_key.lo
              || Interval.hi r.r_interval <> fk.Fire_key.hi
            then begin
              flush ();
              ignore (out_run st.s_out 0 (interval fk))
            end;
            let i = run_push r fk.Fire_key.key in
            Combine.Cols.set r.r_states i state;
            run_items := !run_items + items;
            go ()
        | Some _ | None -> ()
      in
      go ();
      flush ();
      if t.observe then Counter.add t.obs.(id).Metrics.fires !fired;
      if sampled then
        activation_sample t id ~t0 ~name:"session-fire" ~items_in:!items_tot
          ~items_out:!fired ~window:st.s_window
  | Some _ | None -> ()

and session_deliver t id st msg =
  match msg with
  | Events { b; sel; lo; hi } -> bsession_add st b sel lo hi
  | Subs _ ->
      (* sessions have no static coverage, so the optimizer never feeds
         them sub-aggregates *)
      invalid_arg "Stream_exec: session window fed sub-aggregates"
  | Watermark w ->
      if w > st.s_wm then begin
        st.s_wm <- w;
        session_advance t id st w;
        forward t id (Watermark w)
      end

(* --- construction --------------------------------------------------- *)

let create ?(metrics = Metrics.create ()) ?(mode = Naive) ?(observe = true)
    ?spill plan =
  (match Validate.check plan with
  | [] -> ()
  | errors ->
      invalid_arg
        (Format.asprintf "Stream_exec.create: invalid plan:@ %a"
           (Format.pp_print_list ~pp_sep:Format.pp_print_space
              Validate.pp_error)
           errors));
  let nodes = Plan.nodes plan in
  let agg = Plan.agg plan in
  let output = Plan.output plan in
  (* The pane path applies when per-slide pre-aggregation is sound and
     useful: a constant-size sub-aggregate exists (not holistic), the
     instance tiles exactly into panes (aligned geometry, s | r), and
     the input is the raw stream (windows fed by another window consume
     irregular sub-aggregate emissions instead). *)
  let panes_apply window =
    Aggregate.kind agg <> Aggregate.Holistic
    && Window.is_aligned window
    && match Plan.window_input plan window with
       | `Stream -> true
       | `Window _ -> false
  in
  (* Why an incremental-mode window ran the per-instance fallback, in
     precedence order (a node can be disqualified for several reasons;
     the first is the one reported). *)
  let fallback_reason window =
    if Aggregate.kind agg = Aggregate.Holistic then Some "holistic-aggregate"
    else
      match Plan.window_input plan window with
      | `Window _ -> Some "window-fed-input"
      | `Stream ->
          if Window.is_aligned window then None else Some "non-aligned-window"
  in
  let states =
    Array.mapi
      (fun id op ->
        match op with
        | Plan.Source | Plan.Multicast _ -> N_forward
        | Plan.Filter { pred; _ } -> N_filter pred
        | Plan.Union _ -> N_union { sink = false }
        | Plan.Win_agg { window; _ } -> (
            match (window : Window.t) with
            | Window.Session { gap } ->
                (* Key-dependent extents: the dedicated gap-tracking
                   fallback operator in both modes.  Incremental mode
                   surfaces it through the fallback metric. *)
                if mode = Incremental then
                  Metrics.record_fallback metrics ~id ~window
                    ~reason:"session-window";
                let s_codec = session_codec agg in
                N_session
                  {
                    s_window = window;
                    s_gap = gap;
                    s_open =
                      Store.create ?pool:spill
                        ~name:(Printf.sprintf "n%d-session" id)
                        s_codec;
                    s_codec;
                    s_init =
                      (fun () ->
                        {
                          s_first = 0;
                          s_last = 0;
                          s_state = Combine.Cols.create agg 1;
                          s_items = 0;
                        });
                    s_deadlines = Fset.empty;
                    s_pending = Pending.empty;
                    s_out = outbox agg window;
                    s_processed = Metrics.items metrics window;
                    s_wm = 0;
                  }
            | Window.Hop { domain = Window.Count; _ } ->
                (* Ordinal-space instances: the dedicated count operator
                   in both modes (panes pre-aggregate per time slide, so
                   they never apply on the count axis). *)
                if mode = Incremental then
                  Metrics.record_fallback metrics ~id ~window
                    ~reason:"count-window";
                N_cwin
                  {
                    c_window = window;
                    c_keys =
                      Store.create ?pool:spill
                        ~name:(Printf.sprintf "n%d-cwin" id)
                        (cwin_codec agg window);
                    c_init = (fun () -> { seen = 0; kpend = Ring.create agg });
                    c_out = outbox agg window;
                    c_processed = Metrics.items metrics window;
                  }
            | Window.Hop { domain = Window.Time; _ } ->
                if mode = Incremental && panes_apply window then
                  N_pane
                    {
                      p_window = window;
                      slide = Window.slide window;
                      k = Window.k_ratio window;
                      open_pane = Pane.create ?pool:spill agg;
                      cur_pane = 0;
                      queues =
                        Store.create ?pool:spill
                          ~name:(Printf.sprintf "n%d-queues" id)
                          (Bincodec.swag_codec agg);
                      p_out = outbox agg window;
                      p_processed = Metrics.items metrics window;
                      p_wm = 0;
                    }
                else begin
                  if mode = Incremental then
                    (match fallback_reason window with
                    | Some reason ->
                        Metrics.record_fallback metrics ~id ~window ~reason
                    | None -> ());
                  let rec st =
                    {
                      window;
                      w_keys =
                        Store.create ?pool:spill
                          ~name:(Printf.sprintf "n%d-win" id)
                          (win_codec agg window);
                      w_ring = (fun () -> Ring.create agg);
                      w_born = (fun m -> index_birth st st.w_key m);
                      w_born_run =
                        (fun m ->
                          Vec.push st.w_birth_ms m;
                          Vec.push st.w_birth_keys st.w_key);
                      w_key = "";
                      w_birth_ms = Vec.create ();
                      w_birth_keys = Vec.create ();
                      w_buckets = [||];
                      w_fire = Imap.empty;
                      w_out = outbox agg window;
                      w_processed = Metrics.items metrics window;
                      wm = 0;
                    }
                  in
                  N_win st
                end))
      nodes
  in
  (match states.(output) with
  | N_union _ -> states.(output) <- N_union { sink = true }
  | N_forward | N_filter _ | N_win _ | N_pane _ | N_cwin _ | N_session _ -> ());
  let obs =
    Array.mapi
      (fun id op ->
        let kind, window =
          match (op, states.(id)) with
          | Plan.Source, _ -> ("source", None)
          | Plan.Multicast _, _ -> ("multicast", None)
          | Plan.Filter _, _ -> ("filter", None)
          | Plan.Union _, _ -> ("union", None)
          | Plan.Win_agg { window; _ }, N_pane _ -> ("win-pane", Some window)
          | Plan.Win_agg { window; _ }, N_cwin _ -> ("win-count", Some window)
          | Plan.Win_agg { window; _ }, N_session _ ->
              ("win-session", Some window)
          | Plan.Win_agg { window; _ }, _ -> ("win-naive", Some window)
        in
        Metrics.node metrics ~id ~kind ?window ())
      nodes
  in
  let sources =
    let acc = ref [] in
    Array.iteri
      (fun id op -> match op with Plan.Source -> acc := id :: !acc | _ -> ())
      nodes;
    Array.of_list (List.rev !acc)
  in
  {
    plan;
    agg;
    mode;
    spill;
    metrics;
    states;
    obs;
    observe;
    sample_mask = (match Metrics.trace metrics with Some _ -> 0 | None -> 15);
    subs = subscribers plan;
    sources;
    source_wm = 0;
    wm_wall = 0;
    rows = Vec.create ();
    buckets = [||];
    run_slot = -1;
    run_start = 0;
    scratch = Batch.create ();
    iota = [||];
    closed = false;
  }

(* --- snapshot support ---------------------------------------------- *)

(* The engine image: the mode, the source watermark, then per node its
   scalar cells and its stores, each store through {!Store.write} — the
   same codec its spill file uses, so every per-key state family has
   one encoder.  Restoring it through [import] onto the same plan
   yields an executor whose subsequent behavior is indistinguishable
   from the original, float rounding included (sliding queues keep
   their exact internal shape, see {!Fw_agg.Swag.export}).

     image   := mode u8 | source_wm i64 | count i64 | node*
     node    := 0                                    stateless
              | 1 | wm | store                       per-instance
              | 2 | cur_pane | p_wm | pane | store   pane path
              | 3 | store                            count window
              | 4 | wm | store | pending            session window
     pending := count i64 | (key, session payload)*  in firing order

   A rotated session awaiting its deadline is written with the open
   sessions' codec ([last = deadline - gap]). *)

let mode_byte = function Naive -> 0 | Incremental -> 1

let mode_of_byte = function
  | 0 -> Naive
  | 1 -> Incremental
  | n -> Bin.corrupt "unknown execution mode byte %d" n

let image_mode image =
  try mode_of_byte (Bin.r_u8 (Bin.reader image))
  with Bin.Corrupt m -> invalid_arg ("Stream_exec.image_mode: " ^ m)

let row_count t = Vec.length t.rows
let row t i = Vec.get t.rows i

let write_node b = function
  | N_forward | N_filter _ | N_union _ -> Bin.w_u8 b 0
  | N_win st ->
      Bin.w_u8 b 1;
      Bin.w_i64 b st.wm;
      Store.write b st.w_keys
  | N_pane ps ->
      Bin.w_u8 b 2;
      Bin.w_i64 b ps.cur_pane;
      Bin.w_i64 b ps.p_wm;
      Pane.write b ps.open_pane;
      Store.write b ps.queues
  | N_cwin st ->
      Bin.w_u8 b 3;
      Store.write b st.c_keys
  | N_session st ->
      Bin.w_u8 b 4;
      Bin.w_i64 b st.s_wm;
      Store.write b st.s_open;
      let os = st.s_init () in
      Bin.w_list b
        (fun b (fk, (state, items)) ->
          Bin.w_string b fk.Fire_key.key;
          os.s_first <- fk.Fire_key.lo;
          os.s_last <- fk.Fire_key.hi - st.s_gap;
          Combine.Cols.set os.s_state 0 state;
          os.s_items <- items;
          st.s_codec.Store.enc b os)
        (Pending.bindings st.s_pending)

let export_into b t =
  if t.closed then invalid_arg "Stream_exec.export: executor is closed";
  Bin.w_u8 b (mode_byte t.mode);
  Bin.w_i64 b t.source_wm;
  Bin.w_i64 b (Array.length t.states);
  Array.iter (write_node b) t.states

let export t =
  let b = Buffer.create 4096 in
  export_into b t;
  Buffer.contents b

(* Load node [id]'s cells and stores, rebuilding the resident indexes
   (fire index, session deadlines) from the entries as they load. *)
let read_node r id node =
  match (node, Bin.r_u8 r) with
  | (N_forward | N_filter _ | N_union _), 0 -> ()
  | N_win st, 1 ->
      st.wm <- Bin.r_i64 r;
      Store.read
        (fun key rg -> Ring.iter (fun m _ _ -> index_birth st key m) rg)
        st.w_keys r
  | N_pane ps, 2 ->
      ps.cur_pane <- Bin.r_i64 r;
      ps.p_wm <- Bin.r_i64 r;
      Pane.read ps.open_pane r;
      Store.read (fun _ _ -> ()) ps.queues r
  | N_cwin st, 3 -> Store.read (fun _ _ -> ()) st.c_keys r
  | N_session st, 4 ->
      st.s_wm <- Bin.r_i64 r;
      Store.read
        (fun key os ->
          st.s_deadlines <- Fset.add (os.s_last + st.s_gap, key) st.s_deadlines)
        st.s_open r;
      st.s_pending <-
        List.fold_left
          (fun acc (key, os) ->
            Pending.add
              { Fire_key.hi = os.s_last + st.s_gap; lo = os.s_first; key }
              (Combine.Cols.get os.s_state 0, os.s_items)
              acc)
          Pending.empty
          (Bin.r_list r (fun r ->
               let key = Bin.r_string r in
               (key, st.s_codec.Store.dec r)))
  | ( ( N_forward | N_filter _ | N_union _ | N_win _ | N_pane _ | N_cwin _
      | N_session _ ),
      tag ) ->
      invalid_arg
        (Printf.sprintf
           "Stream_exec.import: node %d shape mismatch (tag %d; image from a \
            different plan or mode)"
           id tag)

(* Drop whatever a failed import loaded and take its stores out of a
   shared pool, so they stop counting against its budget and leave no
   spill file or eviction hook behind. *)
let release_stores t =
  Array.iter
    (function
      | N_forward | N_filter _ | N_union _ -> ()
      | N_win st -> Store.release st.w_keys
      | N_pane ps ->
          Pane.release ps.open_pane;
          Store.release ps.queues
      | N_cwin st -> Store.release st.c_keys
      | N_session st -> Store.release st.s_open)
    t.states

let import ?metrics ?observe ?spill plan ~rows image =
  let t = create ?metrics ~mode:(image_mode image) ?observe ?spill plan in
  let r = Bin.reader ~pos:1 image in
  (try
     t.source_wm <- Bin.r_i64 r;
     if Bin.r_i64 r <> Array.length t.states then
       invalid_arg
         "Stream_exec.import: node count mismatch (image from a different \
          plan)";
     Array.iteri (read_node r) t.states;
     if Bin.remaining r <> 0 then
       Bin.corrupt "trailing bytes after engine image (%d)" (Bin.remaining r)
   with
  | Bin.Corrupt m ->
      release_stores t;
      invalid_arg ("Stream_exec.import: corrupt image: " ^ m)
  | Invalid_argument _ as e ->
      release_stores t;
      raise e);
  List.iter (sink_row t) rows;
  t

let root_deliver t msg =
  Array.iter (fun id -> deliver t id msg) t.sources

(* --- feeding ----------------------------------------------------- *)

(* Raw events enter as one message per batch segment: one node visit
   per segment instead of one per event.  Each segment's selection
   starts as the identity over [b]'s columns; filters narrow it, window
   operators fold the whole segment inline.

   The equivalence argument (why coalescing per-event watermarks to
   segment boundaries is invisible): an event at time [t] only folds
   into instances with [hi > t], which is disjoint from the instances
   a watermark [<= t] fires; firing takes due instances in ascending
   (hi, lo, key) order, so the per-node emission order of a coalesced
   fire equals the concatenation of the per-event fires; and the
   cost-model counters are order-insensitive sums.  Engine state at
   every punctuation boundary is therefore exactly the per-event
   state — which is what makes mid-batch checkpoints sound
   ({!Fw_snap.Checkpoint}).  Per-node activation counts and sampled
   latencies may legitimately differ (fewer, larger activations). *)
let ensure_iota t n =
  if Array.length t.iota < n then
    t.iota <- Array.init (max n (2 * Array.length t.iota)) (fun i -> i)

(* Broadcast a new source watermark.  [stamp] is the wall clock when
   the punctuation entered the engine — taken lazily, at most once per
   feed_batch call: the clock is only read when a watermark actually
   advances, keeping observe-mode clock cost off the per-event path.
   It baselines the sampled watermark-to-fire delay and feeds the
   progress gauges the meter turns into watermark lag. *)
let broadcast_wm t ~stamp wm =
  t.source_wm <- wm;
  if t.observe then begin
    if !stamp = 0 then stamp := Clock.now_ns ();
    t.wm_wall <- !stamp;
    Metrics.record_watermark t.metrics ~wm ~at_ns:t.wm_wall
  end;
  root_deliver t (Watermark wm)

(* Atomic validation: replay the interleaved slot order against the
   watermark before touching any state, so a late event rejects the
   whole batch with no partial effects. *)
let validate t b =
  let n = Batch.length b in
  let nm = Batch.mark_count b in
  let times = Batch.times b in
  let running = ref t.source_wm in
  let mj = ref 0 in
  for i = 0 to n - 1 do
    while !mj < nm && fst (Batch.mark b !mj) <= i do
      let _, wm = Batch.mark b !mj in
      if wm > !running then running := wm;
      incr mj
    done;
    if times.(i) < !running then raise (Late_event (Batch.event b i));
    if times.(i) > !running then running := times.(i)
  done

(* Deliver events [lo, hi) of [b]'s columns, then broadcast the
   trailing watermark (the last event's time): per-event execution
   would have broadcast after every time increase, but no state
   distinguishable at a segment boundary depends on the intermediate
   broadcasts. *)
let seg t ~stamp b lo hi =
  if hi > lo then begin
    ensure_iota t hi;
    root_deliver t (Events { b; sel = t.iota; lo; hi });
    let tm = (Batch.times b).(hi - 1) in
    if tm > t.source_wm then broadcast_wm t ~stamp tm
  end

let feed_batch t b =
  if t.closed then invalid_arg "Stream_exec.feed_batch: executor is closed";
  validate t b;
  let n = Batch.length b in
  let nm = Batch.mark_count b in
  if n > 0 then Metrics.record_ingest t.metrics n;
  (* one lazy wall-clock stamp per batch: every broadcast below shares it *)
  let stamp = ref 0 in
  let pos = ref 0 in
  for j = 0 to nm - 1 do
    let at, wm = Batch.mark b j in
    let at = min (max at !pos) n in
    seg t ~stamp b !pos at;
    pos := at;
    if wm > t.source_wm then broadcast_wm t ~stamp wm
  done;
  seg t ~stamp b !pos n

let feed_range t b lo hi =
  if t.closed then invalid_arg "Stream_exec.feed_range: executor is closed";
  if lo < 0 || hi > Batch.length b || lo > hi then
    invalid_arg "Stream_exec.feed_range: not a column range of the batch";
  let times = Batch.times b in
  let running = ref t.source_wm in
  for i = lo to hi - 1 do
    if times.(i) < !running then raise (Late_event (Batch.event b i));
    running := times.(i)
  done;
  if hi > lo then Metrics.record_ingest t.metrics (hi - lo);
  seg t ~stamp:(ref 0) b lo hi

let feed t e =
  if t.closed then invalid_arg "Stream_exec.feed: executor is closed";
  Batch.reset t.scratch;
  Batch.push t.scratch e;
  feed_batch t t.scratch

let advance t time =
  if t.closed then invalid_arg "Stream_exec.advance: executor is closed";
  if time > t.source_wm then broadcast_wm t ~stamp:(ref 0) time

let close t ~horizon =
  if t.closed then invalid_arg "Stream_exec.close: executor is closed";
  advance t horizon;
  t.closed <- true;
  sorted_rows t

let run ?metrics ?mode ?observe ?spill plan ~horizon events =
  let t = create ?metrics ?mode ?observe ?spill plan in
  List.iter
    (fun e -> if e.Event.time < horizon then feed t e)
    (Event.sort events);
  close t ~horizon
