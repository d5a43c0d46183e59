(* Keyed state store with a pluggable backend.

   Both backends keep their entries in one string-keyed chained table
   ({!Tbl}) whose bucket nodes hold the value: every operation hashes
   the key once and walks one bucket once, comparing keys with
   [String.equal], and a hit overwrites the node's data in place.

   [Resident] (no pool) is the table itself behind one constructor
   match.

   [Budgeted] (a {!Pool}) keeps the same map contract but is allowed to
   evict cold entries to an append-only spill file ({!File}) when the
   pool is over budget, faulting them back in lazily on access.
   Eviction is clock / second-chance: entries live in a FIFO of
   candidates; a popped entry that was touched since it was queued gets
   its hot bit cleared and a second trip, a pinned entry rotates
   untouched, a cold one is serialized and dropped from memory.

   A budgeted store threads its spilled entries on an intrusive
   doubly-linked ring (two fields per entry, one sentinel per store).
   An eviction appends a record at the file's end and links the entry
   at the ring's tail; a fault-in, a [set] over a spilled entry and a
   [remove] turn the record into garbage and unlink the entry.  The
   ring is therefore in file order, and compaction copies the live
   records by walking it: no table scan, no sort.  Compaction copies
   into the store's previous file, kept open and emptied, and the file
   it leaves becomes the next target, so a store owns at most two spill
   files, only its first compaction creates one, and none unlinks one.

   Correctness contract (what makes the budgeted backend invisible to
   the differential fuzzer):

   - The store never decides {e values}: eviction serializes exactly
     the bytes the codec produces and fault-in decodes exactly them
     back ({!Bin} floats are IEEE bit patterns), so a faulted entry is
     bit-identical to the evicted one — fold order inside an entry is
     whatever the engine did, untouched.
   - A value the engine is currently mutating is {e accessed}: {!access}
     opens it and {!commit}, or {!remove} of the same key, closes it,
     with no other store operation in between, so no eviction can run
     mid-mutation.  An operator that forwards downstream does so after
     the close.  The one exception is the current entry of an
     {!iter}/{!fold}, which is {e pinned} for its callback (a pane roll
     touches the open pane and the queues from there): pinned entries
     are never evicted, and the pool's budget is allowed to overshoot
     by the pinned slack: one entry per {!iter}/{!fold} in progress.
   - Values obtained from {!find} must be treated as read-only unless
     followed by {!set}.

   A corrupt or truncated spill record surfaces at fault-in as
   {!File.Fault} with the store name, key and reason — never as a
   silently wrong state (the record carries a CRC, the spill kind byte,
   the codec's state-kind tag and the key, all verified). *)

(* --- the table -------------------------------------------------------- *)

(* A string-keyed chained hashtable whose bucket node holds the value,
   so a find-or-insert is one hash and one bucket walk and a hit is an
   in-place write — no second probe and no extra block per entry.  Each
   node keeps its key's hash: the walk compares hashes before keys, so a
   probe makes one [String.equal], on the likely hit, and a resize
   rehashes nothing.

   Visit order contract: for the same history of inserts, removes and
   resets, {!iter} and {!fold} visit entries in exactly the order of a
   generic stdlib [Hashtbl] (non-randomized).  It uses the same hash,
   starts at 16 buckets (and {!reset} returns to 16), doubles once the
   size exceeds twice the bucket count keeping the order inside each
   bucket, inserts new keys at the bucket head, and walks buckets in
   ascending index, head first.  A pane roll emits an instance's keys in
   this order, and checkpoint row logs and served taps keep it. *)
module Tbl = struct
  type 'v bucket =
    | Nil
    | Cons of {
        key : string;
        hash : int;
        mutable data : 'v;
        mutable next : 'v bucket;
      }

  type 'v t = { mutable size : int; mutable buckets : 'v bucket array }

  let initial = 16
  let create () = { size = 0; buckets = Array.make initial Nil }

  let reset t =
    t.size <- 0;
    t.buckets <- Array.make initial Nil

  (* [Hashtbl.hash key], computed by a C stub that skips the generic
     hash's traversal (see spill_stubs.c): the visit order above rests
     on the two being equal on every string. *)
  external hash : string -> int = "fw_spill_hash" [@@noalloc]

  let index t h = h land (Array.length t.buckets - 1)

  let rec cell h key = function
    | Nil -> Nil
    | Cons c as b ->
        if c.hash = h && String.equal c.key key then b else cell h key c.next

  (* The cell of [key] (hash [h]), or [Nil]. *)
  let find t h key = cell h key t.buckets.(index t h)

  (* Relink every node into twice the buckets, appending at each new
     bucket's tail so a bucket's order survives the split. *)
  let resize t =
    let old = t.buckets in
    let n = 2 * Array.length old in
    if n < Sys.max_array_length then begin
      let fresh = Array.make n Nil and tails = Array.make n Nil in
      t.buckets <- fresh;
      Array.iter
        (fun b ->
          let rec go = function
            | Nil -> ()
            | Cons c as node ->
                let next = c.next in
                let i = c.hash land (n - 1) in
                (match tails.(i) with
                | Nil -> fresh.(i) <- node
                | Cons tl -> tl.next <- node);
                tails.(i) <- node;
                go next
          in
          go b)
        old;
      Array.iter (function Cons tl -> tl.next <- Nil | Nil -> ()) tails
    end

  (* Insert [key], known absent, at the head of its bucket.  The index is
     taken from [h] now, so a resize since the lookup is harmless. *)
  let insert t h key data =
    let i = index t h in
    t.buckets.(i) <- Cons { key; hash = h; data; next = t.buckets.(i) };
    t.size <- t.size + 1;
    if t.size > 2 * Array.length t.buckets then resize t

  (* Unlink [key]'s cell in one walk of its bucket: the cell, or [Nil]
     when absent. *)
  let remove t key =
    let h = hash key in
    let i = index t h in
    let rec go prev = function
      | Nil -> Nil
      | Cons c as b ->
          if c.hash = h && String.equal c.key key then begin
            t.size <- t.size - 1;
            (match prev with
            | Nil -> t.buckets.(i) <- c.next
            | Cons p -> p.next <- c.next);
            b
          end
          else go b c.next
    in
    go Nil t.buckets.(i)

  let iter f t =
    let d = t.buckets in
    for i = 0 to Array.length d - 1 do
      let rec go = function
        | Nil -> ()
        | Cons { key; data; next; _ } ->
            f key data;
            go next
      in
      go d.(i)
    done

  let fold f t acc =
    let d = t.buckets in
    let acc = ref acc in
    for i = 0 to Array.length d - 1 do
      let rec go acc = function
        | Nil -> acc
        | Cons { key; data; next; _ } -> go (f key data acc) next
      in
      acc := go !acc d.(i)
    done;
    !acc
end

type 'a codec = {
  kind : int;  (** state-kind tag byte stored in every record *)
  enc : Buffer.t -> 'a -> unit;
  dec : Bin.reader -> 'a;
  weight : 'a -> int;  (** resident-bytes estimate, for accounting only *)
}

(* [off] moves when a compaction copies the record. *)
type 'a slot = Live of 'a | Spilled of { mutable off : int; len : int }

type 'a entry = {
  e_key : string;
  mutable e_slot : 'a slot;
  mutable e_weight : int;  (* accounted weight while Live *)
  mutable e_hot : bool;  (* second-chance bit *)
  mutable e_pins : int;
  mutable e_dead : bool;  (* removed; stale clock-queue reference *)
  mutable e_prev : 'a entry;  (* spill ring links, meaningful while Spilled *)
  mutable e_next : 'a entry;
}

type 'a budgeted = {
  pool : Pool.t;
  codec : 'a codec;
  name : string;
  tbl : 'a entry Tbl.t;
  clock : 'a entry Queue.t;  (* eviction candidates, FIFO + second chance *)
  ring : 'a entry;  (* sentinel of the spilled entries, in file order *)
  mutable file : File.t option;  (* opened lazily, on first eviction *)
  mutable target : File.t option;  (* emptied previous file: the next compaction's *)
  mutable member : int;  (* pool registration, for {!release} *)
  enc : Buffer.t;  (* the payload of the record being evicted *)
  mutable cur : 'a entry;  (* the open {!access}, or [ring] when none *)
}

type 'a t = R of 'a codec * 'a Tbl.t | B of 'a budgeted

(* Compact when the file passes 64 KiB with over half its bytes
   garbage. *)
let compact_min = 1 lsl 16

let file_of b =
  match b.file with
  | Some f -> f
  | None ->
      let f = Pool.fresh_file b.pool ~name:b.name in
      b.file <- Some f;
      f

let spill_fault b key fmt =
  Printf.ksprintf
    (fun s ->
      raise
        (File.Fault (Printf.sprintf "store %s, key %S: %s" b.name key s)))
    fmt

(* --- the spill ring ---------------------------------------------------- *)

let sentinel () =
  let rec s =
    {
      e_key = "";
      e_slot = Spilled { off = -1; len = 0 };
      e_weight = 0;
      e_hot = false;
      e_pins = 0;
      e_dead = true;
      e_prev = s;
      e_next = s;
    }
  in
  s

(* Link [e], whose record was just appended, at the ring's tail. *)
let link_tail b e =
  let last = b.ring.e_prev in
  e.e_prev <- last;
  e.e_next <- b.ring;
  last.e_next <- e;
  b.ring.e_prev <- e

(* Unlink [e], whose record just became garbage. *)
let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev;
  e.e_prev <- e;
  e.e_next <- e

(* --- compaction ------------------------------------------------------ *)

(* Empty a spill file and keep it as the next compaction's target; one
   that cannot be emptied is deleted instead. *)
let retire b f =
  match File.truncate f with
  | () -> b.target <- Some f
  | exception Unix.Unix_error _ -> File.remove f

let maybe_compact b =
  match b.file with
  | Some f when File.size f >= compact_min && 2 * File.garbage_bytes f > File.size f
    ->
      let t0 = Fw_obs.Clock.now_ns () in
      let old_size = File.size f in
      let new_size =
        if File.live_bytes f = 0 then begin
          File.truncate f;
          0
        end
        else begin
          (* Stream the live records, walking the ring in file order,
             into the empty target.  A record that cannot be read back
             is live engine state, so this fails loudly, naming the
             store and key, and leaves every entry on the old file
             rather than dropping one. *)
          let dst =
            match b.target with
            | Some d -> d
            | None -> Pool.fresh_file b.pool ~name:b.name
          in
          b.target <- None;
          let c = Pool.copier b.pool in
          let rec copy e =
            if e != b.ring then begin
              (match e.e_slot with
              | Spilled { off; len } -> (
                  try ignore (File.copy c ~src:f ~dst ~off ~len ~key:e.e_key)
                  with File.Fault m -> spill_fault b e.e_key "%s" m)
              | Live _ -> assert false);
              copy e.e_next
            end
          in
          (match
             File.copy_start c;
             copy b.ring.e_next;
             File.flush c dst
           with
          | () -> ()
          | exception ex ->
              retire b dst;
              raise ex);
          (* the copies lie end to end from offset 0, in ring order *)
          let rec move e off =
            if e != b.ring then
              match e.e_slot with
              | Spilled r ->
                  r.off <- off;
                  move e.e_next (off + r.len)
              | Live _ -> assert false
          in
          move b.ring.e_next 0;
          b.file <- Some dst;
          retire b f;
          File.size dst
        end
      in
      Pool.set_disk b.pool (new_size - old_size);
      Pool.record_compaction b.pool ~reclaimed:(old_size - new_size)
        ~ns:(Fw_obs.Clock.elapsed_ns ~since:t0)
  | Some _ | None -> ()

(* --- eviction (called by the pool's rebalance loop) ------------------ *)

(* The codec encodes straight into the store's payload buffer after the
   record head; {!File.append_payload} frames it into the file's append
   tail, the one copy before the disk. *)
let evict_entry b e v =
  let f = file_of b in
  File.start_payload b.enc ~kind:b.codec.kind ~key:e.e_key;
  b.codec.enc b.enc v;
  let off, len = File.append_payload f b.enc in
  Pool.set_disk b.pool len;
  e.e_slot <- Spilled { off; len };
  link_tail b e;
  let freed = e.e_weight in
  Pool.shrink b.pool freed;
  Pool.entry_dropped b.pool;
  Pool.record_eviction b.pool ~bytes:freed;
  freed

(* Shed one cold entry; returns the resident bytes freed (0 when every
   candidate is pinned, hot-rotated to exhaustion, or the queue is
   empty).  Dead and already-spilled queue references are dropped for
   free along the way. *)
let evict_one b =
  let rec go rotations =
    if Queue.is_empty b.clock then 0
    else
      let e = Queue.pop b.clock in
      if e.e_dead then go rotations
      else
        match e.e_slot with
        | Spilled _ -> go rotations
        | Live v ->
            if e.e_pins > 0 then begin
              Queue.push e b.clock;
              if rotations <= 0 then 0 else go (rotations - 1)
            end
            else if e.e_hot then begin
              e.e_hot <- false;
              Queue.push e b.clock;
              if rotations <= 0 then 0 else go (rotations - 1)
            end
            else evict_entry b e v
  in
  go (Queue.length b.clock)

let close_backend b =
  Option.iter File.remove b.file;
  Option.iter File.remove b.target;
  b.file <- None;
  b.target <- None

(* --- construction ---------------------------------------------------- *)

let create ?pool ~name codec =
  match pool with
  | None -> R (codec, Tbl.create ())
  | Some pool ->
      let ring = sentinel () in
      let b =
        {
          pool;
          codec;
          name;
          tbl = Tbl.create ();
          clock = Queue.create ();
          ring;
          file = None;
          target = None;
          member = -1;
          enc = Buffer.create 256;
          cur = ring;
        }
      in
      b.member <-
        Pool.register pool
          ~evict:(fun () -> evict_one b)
          ~close:(fun () -> close_backend b);
      B b

(* --- fault-in -------------------------------------------------------- *)

let live_value b e =
  match e.e_slot with
  | Live v -> v
  | Spilled { off; len } ->
      let t0 = Fw_obs.Clock.now_ns () in
      let f =
        match b.file with
        | Some f -> f
        | None -> spill_fault b e.e_key "spilled entry but no spill file"
      in
      let kind, r =
        try File.read_record f ~off ~len ~key:e.e_key
        with File.Fault m -> spill_fault b e.e_key "%s" m
      in
      if kind <> b.codec.kind then
        spill_fault b e.e_key "state kind %d where %d was expected" kind
          b.codec.kind;
      let v =
        try b.codec.dec r
        with Bin.Corrupt m -> spill_fault b e.e_key "undecodable state: %s" m
      in
      if Bin.remaining r <> 0 then
        spill_fault b e.e_key "trailing bytes after state (%d)"
          (Bin.remaining r);
      File.release f len;
      unlink e;
      e.e_slot <- Live v;
      e.e_weight <- b.codec.weight v;
      Pool.grow b.pool e.e_weight;
      Pool.entry_added b.pool;
      Pool.note_entry_weight b.pool e.e_weight;
      Queue.push e b.clock;
      Pool.record_fault b.pool ~ns:(Fw_obs.Clock.elapsed_ns ~since:t0);
      maybe_compact b;
      v

(* Re-account an entry whose value may have changed size under
   mutation. *)
let reweigh b e v =
  let w = b.codec.weight v in
  if w <> e.e_weight then begin
    if w > e.e_weight then Pool.grow b.pool (w - e.e_weight)
    else Pool.shrink b.pool (e.e_weight - w);
    e.e_weight <- w;
    Pool.note_entry_weight b.pool w
  end

(* Insert a live entry for [key], known absent, accounted at weight
   [w]. *)
let add_entry b h key v w =
  let rec e =
    {
      e_key = key;
      e_slot = Live v;
      e_weight = w;
      e_hot = true;
      e_pins = 0;
      e_dead = false;
      e_prev = e;
      e_next = e;
    }
  in
  Tbl.insert b.tbl h key e;
  Queue.push e b.clock;
  Pool.grow b.pool e.e_weight;
  Pool.entry_added b.pool;
  Pool.note_entry_weight b.pool e.e_weight;
  e

(* --- map operations -------------------------------------------------- *)

let hash = Tbl.hash
let length = function R (_, tbl) -> tbl.Tbl.size | B b -> b.tbl.Tbl.size
let is_empty t = length t = 0

let find t key =
  match t with
  | R (_, tbl) -> (
      match Tbl.find tbl (Tbl.hash key) key with
      | Tbl.Cons c -> Some c.data
      | Tbl.Nil -> None)
  | B b -> (
      match Tbl.find b.tbl (Tbl.hash key) key with
      | Tbl.Nil -> None
      | Tbl.Cons { data = e; _ } ->
          let v = live_value b e in
          e.e_hot <- true;
          Some v)

let set t key v =
  let h = Tbl.hash key in
  match t with
  | R (_, tbl) -> (
      match Tbl.find tbl h key with
      | Tbl.Cons c -> c.data <- v
      | Tbl.Nil -> Tbl.insert tbl h key v)
  | B b ->
      (match Tbl.find b.tbl h key with
      | Tbl.Nil -> ignore (add_entry b h key v (b.codec.weight v))
      | Tbl.Cons { data = e; _ } ->
          (match e.e_slot with
          | Live _ -> reweigh b e v
          | Spilled { len; _ } ->
              (* the on-disk copy is superseded *)
              (match b.file with Some f -> File.release f len | None -> ());
              unlink e;
              e.e_weight <- b.codec.weight v;
              Pool.grow b.pool e.e_weight;
              Pool.entry_added b.pool;
              Pool.note_entry_weight b.pool e.e_weight;
              Queue.push e b.clock);
          e.e_slot <- Live v;
          e.e_hot <- true);
      Pool.rebalance b.pool;
      maybe_compact b

(* Drop a live entry from the pool's accounts. *)
let drop_live b e =
  Pool.shrink b.pool e.e_weight;
  Pool.entry_dropped b.pool

(* Also closes an open {!access} of [key]. *)
let remove t key =
  match t with
  | R (_, tbl) -> ignore (Tbl.remove tbl key)
  | B b ->
      (match Tbl.remove b.tbl key with
      | Tbl.Nil -> ()
      | Tbl.Cons { data = e; _ } ->
          (match e.e_slot with
          | Live _ -> drop_live b e
          | Spilled { len; _ } ->
              Option.iter (fun f -> File.release f len) b.file;
              unlink e);
          e.e_dead <- true;
          if b.cur == e then b.cur <- b.ring);
      (* after the unlink, so a failed compaction leaves the removal done *)
      maybe_compact b

(* Find-or-create for in-place mutation, closed by {!commit}: the
   engine's per-event idiom, with no callback.  A budgeted access leaves
   the pool's accounts, hot bit and rebalance to {!commit}, which does
   them after the mutation, so they follow the mutated value: a new
   entry is inserted at weight 0 and accounted there.  No other
   operation on a store of the pool may come between the two, or an
   eviction could serialize the value mid-mutation. *)
let access t key ~init =
  let h = Tbl.hash key in
  match t with
  | R (_, tbl) -> (
      match Tbl.find tbl h key with
      | Tbl.Cons c -> c.data
      | Tbl.Nil ->
          let v = init () in
          Tbl.insert tbl h key v;
          v)
  | B b -> (
      match Tbl.find b.tbl h key with
      | Tbl.Cons { data = e; _ } ->
          let v = live_value b e in
          b.cur <- e;
          v
      | Tbl.Nil ->
          let v = init () in
          b.cur <- add_entry b h key v 0;
          v)

let commit = function
  | R _ -> ()
  | B b -> (
      let e = b.cur in
      b.cur <- b.ring;
      match e.e_slot with
      | Live v ->
          e.e_hot <- true;
          reweigh b e v;
          Pool.rebalance b.pool;
          maybe_compact b
      | Spilled _ -> invalid_arg "Store.commit: no open access")

(* Iterate every entry.  Resident: the table's visit order.  Budgeted:
   the reverse of it (the entries are collected first); each entry is
   faulted in if needed and pinned for its callback, which may perform
   nested store operations on {e other} stores and mutate the visited
   value in place — but must not add or remove entries of this store
   (collect and apply after, as the engine's firing paths do). *)
let iter f t =
  match t with
  | R (_, tbl) -> Tbl.iter f tbl
  | B b ->
      let entries = Tbl.fold (fun _ e acc -> e :: acc) b.tbl [] in
      List.iter
        (fun e ->
          if not e.e_dead then begin
            let v = live_value b e in
            e.e_pins <- e.e_pins + 1;
            Fun.protect
              ~finally:(fun () ->
                e.e_pins <- e.e_pins - 1;
                e.e_hot <- true;
                reweigh b e v;
                Pool.rebalance b.pool)
              (fun () -> f e.e_key v)
          end)
        entries

let fold f t acc =
  match t with
  | R (_, tbl) -> Tbl.fold f tbl acc
  | B b ->
      let entries = Tbl.fold (fun _ e acc -> e :: acc) b.tbl [] in
      List.fold_left
        (fun acc e ->
          if e.e_dead then acc
          else begin
            let v = live_value b e in
            e.e_pins <- e.e_pins + 1;
            Fun.protect
              ~finally:(fun () ->
                e.e_pins <- e.e_pins - 1;
                e.e_hot <- true;
                reweigh b e v;
                Pool.rebalance b.pool)
              (fun () -> f e.e_key v acc)
          end)
        acc entries

let clear t =
  match t with
  | R (_, tbl) -> Tbl.reset tbl
  | B b ->
      Tbl.iter
        (fun _ e ->
          (match e.e_slot with Live _ -> drop_live b e | Spilled _ -> ());
          e.e_dead <- true)
        b.tbl;
      Tbl.reset b.tbl;
      Queue.clear b.clock;
      b.ring.e_prev <- b.ring;
      b.ring.e_next <- b.ring;
      (match b.file with
      | Some f ->
          let sz = File.size f in
          if sz > 0 then begin
            File.truncate f;
            Pool.set_disk b.pool (-sz)
          end
      | None -> ())

let release t =
  clear t;
  match t with
  | R _ -> ()
  | B b ->
      close_backend b;
      Pool.unregister b.pool b.member

let check_ring t =
  match t with
  | R _ -> Ok ()
  | B b ->
      let spilled =
        Tbl.fold
          (fun _ e n -> match e.e_slot with Spilled _ -> n + 1 | Live _ -> n)
          b.tbl 0
      in
      let live = match b.file with Some f -> File.live_bytes f | None -> 0 in
      let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
      let rec walk e next_off n bytes =
        if e == b.ring then
          if n <> spilled then
            fail "%d entries on the ring, %d spilled in the table" n spilled
          else if bytes <> live then
            fail "ring records hold %d bytes, the file %d live" bytes live
          else Ok ()
        else if e.e_prev.e_next != e || e.e_next.e_prev != e then
          fail "broken ring links at key %S" e.e_key
        else
          match (e.e_slot, Tbl.find b.tbl (Tbl.hash e.e_key) e.e_key) with
          | Live _, _ -> fail "live entry %S on the ring" e.e_key
          | Spilled _, Tbl.Cons c when c.data != e ->
              fail "ring entry %S is not the table's" e.e_key
          | Spilled _, Tbl.Nil -> fail "ring entry %S is not in the table" e.e_key
          | Spilled { off; len }, Tbl.Cons _ ->
              if off < next_off then
                fail "key %S at offset %d, before the previous record's end %d"
                  e.e_key off next_off
              else walk e.e_next (off + len) (n + 1) (bytes + len)
      in
      walk b.ring.e_next 0 0 0

(* --- whole-store image ----------------------------------------------- *)

(* A store's image is its entries as a key-sorted list of (key, codec
   payload): the same bytes a spill record holds, so each state family
   has one encoder for both spilling and snapshots.  Writing faults
   spilled entries in (through [fold]), and the key order makes the
   image the same whatever the backend. *)

let codec_of = function R (codec, _) -> codec | B b -> b.codec

let write buf t =
  let codec = codec_of t in
  Bin.w_list buf
    (fun buf (key, v) ->
      Bin.w_string buf key;
      codec.enc buf v)
    (List.sort
       (fun (a, _) (b, _) -> String.compare a b)
       (fold (fun key v acc -> (key, v) :: acc) t []))

let read f t r =
  let codec = codec_of t in
  clear t;
  let n = Bin.r_i64 r in
  if n < 0 || n > Bin.remaining r then
    Bin.corrupt "invalid store entry count %d (%d bytes remaining)" n
      (Bin.remaining r);
  let prev = ref None in
  for _ = 1 to n do
    let key = Bin.r_string r in
    (match !prev with
    | Some p when String.compare p key >= 0 ->
        Bin.corrupt "store image key %S after %S: keys must ascend" key p
    | Some _ | None -> ());
    prev := Some key;
    let v = codec.dec r in
    f key v;
    set t key v
  done
