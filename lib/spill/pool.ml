(* Memory-budget pool: the shared accounting and eviction driver behind
   every {!Store} of one engine.

   A pool owns one byte budget and the directory the stores' spill
   files live in.  Stores report every resident-weight change here;
   whenever the resident total exceeds the budget, {!rebalance} asks
   the registered stores — round-robin — to each evict one cold entry
   (clock / second-chance, see {!Store}) until the total fits again or
   only pinned entries remain (a pinned entry is the one a store
   {!Store.iter}/{!Store.fold} is visiting; evicting it would detach the
   live value from the store, so the budget is allowed to overshoot by
   the pinned slack — one entry, since the engine's visits never
   nest).

   Single-writer like the metric cells it publishes: one pool per
   engine domain. *)

module Counter = Fw_obs.Counter
module Gauge = Fw_obs.Gauge
module Histogram = Fw_obs.Histogram

type member = { m_id : int; m_evict : unit -> int; m_close : unit -> unit }

type t = {
  mutable budget : int;
  mutable resident : int;  (* sum of live entry weights across stores *)
  mutable disk : int;  (* sum of spill-file sizes *)
  dir : string;
  owns_dir : bool;
  mutable members : member list;
  mutable next_id : int;
  mutable peak_resident : int;
  mutable max_entry : int;  (* largest entry weight ever resident *)
  mutable closed : bool;
  copier : File.copier;  (* compaction's chunk buffers, shared by members *)
  (* published metrics *)
  g_resident_bytes : Gauge.t;
  g_resident_keys : Gauge.t;
  g_disk_bytes : Gauge.t;
  c_evictions : Counter.t;
  c_writes : Counter.t;
  c_eviction_bytes : Counter.t;
  c_faults : Counter.t;
  h_fault_ns : Histogram.t;
  c_compactions : Counter.t;
  c_compacted_bytes : Counter.t;
  h_compaction_ns : Histogram.t;
}

let fresh_temp_dir () =
  let d = Filename.temp_file "fwspill" "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?registry ?(labels = []) ?dir ~budget () =
  if budget < 0 then invalid_arg "Fw_spill.Pool.create: negative budget";
  let dir, owns_dir =
    match dir with
    | Some d ->
        mkdir_p d;
        (d, false)
    | None -> (fresh_temp_dir (), true)
  in
  let reg =
    match registry with Some r -> r | None -> Fw_obs.Registry.create ()
  in
  {
    budget;
    resident = 0;
    disk = 0;
    dir;
    owns_dir;
    members = [];
    next_id = 0;
    peak_resident = 0;
    max_entry = 0;
    closed = false;
    copier = File.copier ();
    g_resident_bytes =
      Fw_obs.Registry.gauge reg ~labels
        ~help:"Bytes of per-key state resident in memory (spill pool)"
        "spill_resident_bytes";
    g_resident_keys =
      Fw_obs.Registry.gauge reg ~labels
        ~help:"Per-key state entries resident in memory (spill pool)"
        "spill_resident_keys";
    g_disk_bytes =
      Fw_obs.Registry.gauge reg ~labels
        ~help:"Bytes occupied by spill files on disk (live + garbage)"
        "spill_disk_bytes";
    c_evictions =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Entries evicted from memory to a spill file"
        "spill_evictions_total";
    c_writes =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Spill-file writes (append tails, oversized records, compaction chunks)"
        "spill_writes_total";
    c_eviction_bytes =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Resident bytes released by evictions"
        "spill_evicted_bytes_total";
    c_faults =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Entries faulted back in from a spill file"
        "spill_faults_total";
    h_fault_ns =
      Fw_obs.Registry.histogram reg ~labels
        ~help:"Latency of a spill fault-in (read + verify + decode)"
        "spill_fault_ns";
    c_compactions =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Spill-file compactions (garbage ratio exceeded threshold)"
        "spill_compactions_total";
    c_compacted_bytes =
      Fw_obs.Registry.counter reg ~labels
        ~help:"Garbage bytes reclaimed by spill-file compactions"
        "spill_compacted_bytes_total";
    h_compaction_ns =
      Fw_obs.Registry.histogram reg ~labels
        ~help:"Latency of a spill-file compaction (stream live records, swap files)"
        "spill_compaction_ns";
  }

let budget t = t.budget
let dir t = t.dir
let resident_bytes t = t.resident
let resident_keys t = int_of_float (Gauge.get t.g_resident_keys)
let disk_bytes t = t.disk
let peak_resident_bytes t = t.peak_resident
let max_entry_bytes t = t.max_entry
let evictions t = Counter.get t.c_evictions
let writes t = Counter.get t.c_writes
let faults t = Counter.get t.c_faults
let compactions t = Counter.get t.c_compactions

let copier t = t.copier

let fresh_file t ~name =
  let id = t.next_id in
  t.next_id <- id + 1;
  File.create ~writes:t.c_writes
    (Filename.concat t.dir (Printf.sprintf "%s-%d.spill" name id))

(* --- store-side accounting (see {!Store}) --------------------------- *)

let grow t bytes =
  t.resident <- t.resident + bytes;
  Gauge.set t.g_resident_bytes (float_of_int t.resident)

let shrink t bytes =
  t.resident <- t.resident - bytes;
  Gauge.set t.g_resident_bytes (float_of_int t.resident)

let entry_added t = Gauge.add t.g_resident_keys 1.0
let entry_dropped t = Gauge.add t.g_resident_keys (-1.0)

let note_entry_weight t w = if w > t.max_entry then t.max_entry <- w

let record_eviction t ~bytes =
  Counter.inc t.c_evictions;
  Counter.add t.c_eviction_bytes bytes

let record_fault t ~ns =
  Counter.inc t.c_faults;
  Histogram.record t.h_fault_ns ns

let record_compaction t ~reclaimed ~ns =
  Counter.inc t.c_compactions;
  Counter.add t.c_compacted_bytes reclaimed;
  Histogram.record t.h_compaction_ns ns

let set_disk t bytes_delta =
  t.disk <- t.disk + bytes_delta;
  Gauge.set t.g_disk_bytes (float_of_int t.disk)

(* --- eviction driver ------------------------------------------------ *)

(* Ask every member store to shed one cold entry per pass until the
   resident total fits the budget or a full pass frees nothing (only
   pinned or already-spilled entries remain).  The peak gauge is
   sampled here — after enforcement — so it reports the bound the pool
   actually guarantees. *)
let rebalance t =
  if not t.closed then begin
    let continue_ = ref (t.resident > t.budget) in
    while !continue_ do
      let freed =
        List.fold_left
          (fun acc m ->
            if t.resident > t.budget then acc + m.m_evict () else acc)
          0 t.members
      in
      continue_ := freed > 0 && t.resident > t.budget
    done;
    if t.resident > t.peak_resident then t.peak_resident <- t.resident
  end

let set_budget t budget =
  if budget < 0 then invalid_arg "Fw_spill.Pool.set_budget: negative budget";
  t.budget <- budget;
  rebalance t

let register t ~evict ~close =
  let id = t.next_id in
  t.next_id <- id + 1;
  t.members <- t.members @ [ { m_id = id; m_evict = evict; m_close = close } ];
  id

let unregister t id =
  t.members <- List.filter (fun m -> m.m_id <> id) t.members

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter (fun m -> m.m_close ()) t.members;
    t.members <- [];
    if t.owns_dir then try Unix.rmdir t.dir with Unix.Unix_error _ -> ()
  end
