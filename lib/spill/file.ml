(* Append-only spill file: the disk side of the out-of-core state
   store.

   Records use the shared framing [len u32][payload][crc32 u32]
   ({!Bin.frame_into}); every payload opens with the {!Bin.spill_kind} byte
   followed by a state-kind tag and the entry's key, so a record read
   back at fault-in time is verified to be (a) intact (CRC), (b) a
   spill record at all, and (c) the record for the requested key —
   three independent ways a bug or a torn write would otherwise smuggle
   wrong state into the engine.

   Appends are written behind: each record is framed into the file's
   8 KiB tail, and the tail reaches the disk in one write when the next
   record does not fit.  A record lives wholly in the tail or wholly on
   disk, and the tail always holds the file's last bytes, so a read at
   or past [size - tail_len] is served from memory.  A failed tail
   write leaves the tail as it was: its records stay readable and the
   next append writes it again at the same place.

   Every transfer is positioned: a record read, a tail write and a
   compaction chunk each go through one [pread]/[pwrite] at their
   offset (the C stubs in [spill_stubs.c]), straight between the kernel
   and the OCaml buffer — no seek, and no bounce buffer.  The stubs
   keep the runtime lock: releasing it would let the buffer move, so it
   would need [Unix.read]'s bounce buffer and copy, which cost more than
   a transfer of a few KiB from the page cache, and a pool is
   single-writer, so no thread of the domain waits for the lock.

   Spill files are {e scratch}: checkpoints re-absorb every spilled
   entry into the snapshot (see {!Store.fold}), so recovery never reads
   one, and {!remove} deletes them on close.  Durability is therefore
   not a goal — no fsync, no rename dance — but fault-in failures are:
   a corrupt record surfaces as {!Fault} with a reason, never as a
   garbage state. *)

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

(* Record layout, fixed up to the key:
     [len u32][0xF5][kind u8][key length i64][key][value][crc32 u32]
   with [len] the payload length (spill kind through value). *)
let key_pos = 14

(* Scratch buffers at most this large are kept for reuse; a larger
   record gets a one-off buffer, so a single huge entry never stays
   resident outside the budget.  Also the size of the append tail and
   of the compaction chunks: at 64 KiB the chunk buffers cost
   spill-wide ~0.9 MiB of peak RSS, at 8 KiB nothing measurable, for a
   few more syscalls per compaction. *)
let chunk = 1 lsl 13

type t = {
  path : string;
  fd : Unix.file_descr;
  mutable size : int;  (* append position: total bytes appended *)
  mutable live : int;  (* record bytes still referenced by the store *)
  mutable closed : bool;
  mutable buf : Bytes.t;  (* one record image for fault-in reads *)
  tail : Bytes.t;  (* the last [tail_len] bytes of the file, not yet written *)
  mutable tail_len : int;
  writes : Fw_obs.Counter.t option;  (* one tick per completed write *)
}

let create ?writes path =
  let fd = Unix.openfile path [ Unix.O_RDWR; O_CREAT; O_TRUNC ] 0o600 in
  {
    path;
    fd;
    size = 0;
    live = 0;
    closed = false;
    buf = Bytes.create 256;
    tail = Bytes.create chunk;
    tail_len = 0;
    writes;
  }

let path t = t.path
let size t = t.size
let live_bytes t = t.live
let garbage_bytes t = t.size - t.live

let check_open t what =
  if t.closed then invalid_arg (Printf.sprintf "Fw_spill.File.%s: closed" what)

(* A buffer of at least [n] bytes: the kept one, grown up to {!chunk}. *)
let scratch t n =
  if n <= Bytes.length t.buf then t.buf
  else if n > chunk then Bytes.create n
  else begin
    t.buf <- Bytes.create (min chunk (max n (2 * Bytes.length t.buf)));
    t.buf
  end

(* [pread fd off buf pos len] and [pwrite fd off buf pos len] transfer
   up to [len] bytes between [buf.[pos..]] and the file at [off] in one
   system call, retried on EINTR, and return the count; a failure
   raises [Unix.Unix_error]. *)
external pread : Unix.file_descr -> int -> Bytes.t -> int -> int -> int
  = "fw_spill_pread"

external pwrite : Unix.file_descr -> int -> Bytes.t -> int -> int -> int
  = "fw_spill_pwrite"

(* Write [buf.[pos..pos+len)] at [off]. *)
let write_at t off buf pos len =
  let rec go p =
    if p < len then go (p + pwrite t.fd (off + p) buf (pos + p) (len - p))
  in
  go 0;
  Option.iter Fw_obs.Counter.inc t.writes

(* Read exactly [len] bytes at [off] into [buf.[0..len)]. *)
let read_at t off buf len =
  let rec go p =
    if p < len then
      match pread t.fd (off + p) buf p (len - p) with
      | 0 -> fault "truncated spill file (wanted %d bytes, got %d)" len p
      | n -> go (p + n)
  in
  go 0

(* Start a record payload in [b]: kind byte, state-kind tag, key.  The
   caller appends the value bytes (a codec writes them straight in). *)
let start_payload b ~kind ~key =
  Buffer.clear b;
  Bin.w_u8 b Bin.spill_kind;
  Bin.w_u8 b kind;
  Bin.w_string b key

(* Account [len] record bytes appended at the end. *)
let grow t len =
  t.size <- t.size + len;
  t.live <- t.live + len

(* Write the pending tail at its place.  Until that succeeds the tail
   stays as it is, still readable, and the next call writes it
   again. *)
let write_tail t =
  if t.tail_len > 0 then begin
    write_at t (t.size - t.tail_len) t.tail 0 t.tail_len;
    t.tail_len <- 0
  end

(* Append [buf.[0..len)] straight to disk, after the pending tail. *)
let append_direct t buf len =
  write_tail t;
  write_at t t.size buf 0 len;
  grow t len

(* Frame the payload in [b] into the tail ({!Bin.frame_into}, the one
   copy between the codec and the disk), writing the tail out first
   when the record does not fit; returns (offset, record length).  A
   record larger than the tail goes straight to disk from a one-off
   buffer, and its payload buffer gives its storage back. *)
let append_payload t b =
  check_open t "append";
  let plen = Buffer.length b in
  let len = plen + 8 in
  let off = t.size in
  if len <= chunk then begin
    if t.tail_len + len > chunk then write_tail t;
    Bin.frame_into b t.tail t.tail_len;
    t.tail_len <- t.tail_len + len;
    grow t len
  end
  else begin
    let buf = Bytes.create len in
    Bin.frame_into b buf 0;
    if plen > chunk then Buffer.reset b;
    append_direct t buf len
  end;
  (off, len)

let append t ~kind ~key value =
  let b = Buffer.create (String.length key + String.length value + 16) in
  start_payload b ~kind ~key;
  Buffer.add_string b value;
  append_payload t b

let key_equal s pos key =
  let n = String.length key in
  let rec go i =
    i = n || (String.unsafe_get s (pos + i) = String.unsafe_get key i && go (i + 1))
  in
  go 0

(* Verify the record image [s.[pos..pos+len)] in place — framing, CRC,
   spill kind, and that it holds [key] when given — and return the
   position of its value, which runs to [pos + len - 4]. *)
let check_record ?key s ~pos ~len =
  if len < 8 then fault "truncated spill record";
  let plen = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF in
  if plen <= 0 || plen <> len - 8 then
    fault "bad spill record length %d (record is %d bytes)" plen len;
  let crc =
    Int32.to_int (String.get_int32_le s (pos + 4 + plen)) land 0xFFFFFFFF
  in
  let actual = Bin.crc32_sub s (pos + 4) plen in
  if crc <> actual then
    fault "spill record CRC mismatch (stored %08x, computed %08x)" crc actual;
  let pr = Bin.reader ~pos:(pos + 4) ~limit:(pos + 4 + plen) s in
  try
    let k = Bin.r_u8 pr in
    if k <> Bin.spill_kind then
      fault "payload kind %#x is not a spill record (%#x)" k Bin.spill_kind;
    ignore (Bin.r_u8 pr);
    let klen = Bin.r_i64 pr in
    Bin.need pr klen "string";
    (match key with
    | Some key when not (String.length key = klen && key_equal s pr.Bin.pos key)
      ->
        fault "spill record holds key %S where %S was expected"
          (String.sub s pr.Bin.pos klen) key
    | _ -> ());
    pr.Bin.pos + klen
  with Bin.Corrupt m -> fault "bad spill record: %s" m

(* The state-kind tag of a checked record. *)
let kind_of s pos = Char.code s.[pos + 5]

(* Verify the record at [off] (length [len]) in place in the tail, or
   read it from disk into the scratch buffer and verify it there:
   framing, CRC, spill kind and key.  Returns its state-kind tag and a
   reader bounded to the value bytes, valid until the next append or
   read on [t]: the value is never copied. *)
let read_record t ~off ~len ~key =
  check_open t "read";
  if off < 0 || len < 8 || off + len > t.size then
    fault "spill record out of bounds (off %d, len %d, file %d)" off len t.size;
  let tail_off = t.size - t.tail_len in
  let s, pos =
    if off >= tail_off then (Bytes.unsafe_to_string t.tail, off - tail_off)
    else begin
      let buf = scratch t len in
      read_at t off buf len;
      (Bytes.unsafe_to_string buf, 0)
    end
  in
  let vpos = check_record ~key s ~pos ~len in
  (kind_of s pos, Bin.reader ~pos:vpos ~limit:(pos + len - 4) s)

let read t ~off ~len ~key =
  let kind, r = read_record t ~off ~len ~key in
  (kind, String.sub r.Bin.src r.Bin.pos (Bin.remaining r))

(* --- compaction copy --------------------------------------------------- *)

(* Compaction streams verified records from one file into another
   through two chunk buffers kept across compactions.  The source
   writes out its tail first; it is then read in file order a chunk at
   a time (one [pread] per chunk, garbage between live records skipped),
   each record is checked in place, and its raw bytes gather in the
   output chunk, written out whole when full.  A record larger than a
   chunk goes through a one-off buffer. *)
type copier = {
  mutable inb : Bytes.t;
  mutable win_off : int;  (* source offset of [inb.[0]] *)
  mutable win_len : int;  (* valid bytes in [inb] *)
  mutable outb : Bytes.t;
  mutable fill : int;  (* bytes gathered in [outb] *)
}

let copier () =
  { inb = Bytes.empty; win_off = 0; win_len = 0; outb = Bytes.empty; fill = 0 }

let copy_start c =
  if Bytes.length c.inb = 0 then begin
    c.inb <- Bytes.create chunk;
    c.outb <- Bytes.create chunk
  end;
  c.win_len <- 0;
  c.fill <- 0

let flush c dst =
  if c.fill > 0 then begin
    append_direct dst c.outb c.fill;
    c.fill <- 0
  end

let copy c ~src ~dst ~off ~len ~key =
  check_open src "read";
  check_open dst "append";
  if off < 0 || len < 8 || off + len > src.size then
    fault "spill record out of bounds (off %d, len %d, file %d)" off len
      src.size;
  write_tail src;
  if len > chunk then begin
    let buf = Bytes.create len in
    read_at src off buf len;
    ignore (check_record ~key (Bytes.unsafe_to_string buf) ~pos:0 ~len);
    flush c dst;
    let off' = dst.size in
    append_direct dst buf len;
    off'
  end
  else begin
    if off < c.win_off || off + len > c.win_off + c.win_len then begin
      let n = min chunk (src.size - off) in
      read_at src off c.inb n;
      c.win_off <- off;
      c.win_len <- n
    end;
    let pos = off - c.win_off in
    ignore (check_record ~key (Bytes.unsafe_to_string c.inb) ~pos ~len);
    if c.fill + len > chunk then flush c dst;
    let off' = dst.size + c.fill in
    Bytes.blit c.inb pos c.outb c.fill len;
    c.fill <- c.fill + len;
    off'
  end

(* A faulted-in or removed record's bytes become garbage. *)
let release t len = t.live <- t.live - len

let truncate t =
  check_open t "truncate";
  Unix.ftruncate t.fd 0;
  t.size <- 0;
  t.live <- 0;
  t.tail_len <- 0

(* Closing writes the tail out, so a kept file holds every record; a
   file that cannot take it is scratch either way. *)
let close t =
  if not t.closed then begin
    (try write_tail t with Unix.Unix_error _ -> ());
    t.closed <- true;
    (try Unix.close t.fd with Unix.Unix_error _ -> ())
  end

(* No tail write for bytes about to be unlinked. *)
let remove t =
  t.tail_len <- 0;
  close t;
  try Unix.unlink t.path with Unix.Unix_error _ -> ()

(* --- offline scan --------------------------------------------------- *)

type scan = {
  records : (int * int * string * string) list;
      (** (offset, state-kind, key, value bytes) of every intact record *)
  skipped : (int * string) list;
      (** (offset, reason) for every record the scan had to skip *)
}

(* Scan a spill-file image record by record.  Unlike {!Bin.decode_frames}
   (which stops at the first bad record — right for a log whose tail may
   be torn), the scan {e skips} a record whose CRC or payload is bad and
   keeps going as long as the length prefix itself is plausible, so one
   flipped bit doesn't hide every record behind it.  A mangled length
   prefix ends the scan (there is no resync marker), with the reason
   surfaced. *)
let scan_image s =
  let n = String.length s in
  let rec go pos records skipped =
    if n - pos < 4 then
      { records = List.rev records; skipped = List.rev skipped }
    else
      let r = Bin.reader ~pos s in
      let len = Bin.r_u32 r in
      if len <= 0 || len > n - r.Bin.pos - 4 then
        {
          records = List.rev records;
          skipped =
            List.rev
              ((pos, Printf.sprintf "implausible record length %d" len)
              :: skipped);
        }
      else
        let total = 4 + len + 4 in
        match check_record s ~pos ~len:total with
        | vpos ->
            let key = String.sub s (pos + key_pos) (vpos - pos - key_pos) in
            let value = String.sub s vpos (pos + total - 4 - vpos) in
            go (pos + total) ((pos, kind_of s pos, key, value) :: records) skipped
        | exception Fault reason ->
            go (pos + total) records ((pos, reason) :: skipped)
  in
  go 0 [] []

let scan path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  scan_image s
