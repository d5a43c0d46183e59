(* Binary reader/writer primitives shared by the spill files
   ({!Fw_spill.File}), the store codecs, the engine image and the
   snapshot codec ({!Fw_snap.Codec}), which all call them directly.

   They live below the engine in the dependency graph, so the
   out-of-core state store can serialize per-key state with them
   without creating a cycle (the snapshot codec depends on the engine,
   which depends on the store).

   Integers are fixed 64-bit little-endian (an OCaml [int] round-trips
   losslessly through [Int64]); floats are their IEEE bit patterns, so
   a decoded state is bit-identical to the encoded one.  Strings and
   lists are length-prefixed with bounds checks so a corrupted length
   can never trigger a giant allocation. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

(* --- CRC-32 (IEEE 802.3, polynomial 0xEDB88320) -------------------- *)

(* Slice-by-8: [crc_tables] holds eight 256-entry tables back to back.
   Table 0 is the classic bytewise table; table [k] at [k * 256] maps a
   byte to its CRC contribution followed by [k] more zero bytes, so one
   step folds 8 input bytes with two 32-bit loads and eight lookups.  A
   bytewise tail finishes the last [len mod 8] bytes.  The result is
   bit-identical to the bytewise loop. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let p = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (p lsr 8) lxor t.(p land 0xff)
    done
  done;
  t

external get32u : string -> int -> int32 = "%caml_string_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* Unchecked little-endian u32 load; the caller has checked bounds. *)
let u32le s i =
  let v = get32u s i in
  Int32.to_int (if Sys.big_endian then swap32 v else v) land 0xFFFFFFFF

(* [crc] is the finished CRC of the bytes before [pos]: undoing the
   final inversion resumes the register, so a CRC can be carried across
   parts that never sit side by side in memory. *)
let crc32_update crc s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fw_spill.Bin.crc32_update";
  let t = crc_tables in
  let c = ref (crc lxor 0xFFFFFFFF) and i = ref pos in
  let stop = pos + (len land lnot 7) in
  while !i < stop do
    let one = u32le s !i lxor !c and two = u32le s (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (one land 0xff))
      lxor Array.unsafe_get t (1536 + ((one lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((one lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (one lsr 24))
      lxor Array.unsafe_get t (768 + (two land 0xff))
      lxor Array.unsafe_get t (512 + ((two lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((two lsr 16) land 0xff))
      lxor Array.unsafe_get t (two lsr 24);
    i := !i + 8
  done;
  for j = stop to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32_sub s pos len = crc32_update 0 s pos len
let crc32 s = crc32_sub s 0 (String.length s)

(* --- writer primitives --------------------------------------------- *)

let w_u8 b n = Buffer.add_char b (Char.chr (n land 0xff))
let w_u16 b n = Buffer.add_int16_le b n
let w_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let w_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let w_raw64 b n = Buffer.add_int64_le b n
let w_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let w_string b s =
  w_i64 b (String.length s);
  Buffer.add_string b s

let w_list b f xs =
  w_i64 b (List.length xs);
  List.iter (f b) xs

let w_option b f = function
  | None -> w_u8 b 0
  | Some v ->
      w_u8 b 1;
      f b v

(* --- reader primitives --------------------------------------------- *)

type reader = { src : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit src =
  let limit = match limit with Some l -> l | None -> String.length src in
  { src; pos; limit }

let remaining r = r.limit - r.pos

let need r n what =
  if n < 0 || remaining r < n then
    corrupt "truncated %s (%d bytes needed, %d available)" what n (remaining r)

let r_u8 r =
  need r 1 "byte";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2 "u16";
  let v = Char.code r.src.[r.pos] lor (Char.code r.src.[r.pos + 1] lsl 8) in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xFFFFFFFF in
  r.pos <- r.pos + 4;
  v

let r_raw64 r =
  need r 8 "i64";
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

let r_i64 r = Int64.to_int (r_raw64 r)
let r_float r = Int64.float_of_bits (r_raw64 r)

let r_bool r =
  match r_u8 r with
  | 0 -> false
  | 1 -> true
  | n -> corrupt "invalid boolean byte %d" n

let r_string r =
  let len = r_i64 r in
  need r len "string";
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let r_list r f =
  let n = r_i64 r in
  (* every element occupies at least one byte, so a count beyond the
     remaining bytes is corruption, not a large list *)
  if n < 0 || n > remaining r then
    corrupt "invalid list length %d (%d bytes remaining)" n (remaining r);
  List.init n (fun _ -> f r)

let r_option r f = match r_bool r with false -> None | true -> Some (f r)

(* --- framed append-only records ------------------------------------ *)

(* The WAL, the emitted-row log and the spill files share one record
   framing, [len u32][payload][crc32(payload) u32], written by
   [frame_into] alone and flushed in whole records.  [decode_frames]
   scans an image and stops cleanly at the first torn or corrupt
   record: a crash can leave a partial record at the tail, and
   everything before it is still good. *)

(* The one framing routine: [payload]'s bytes framed at [dst.[pos..]]
   with a single blit, the CRC computed over the copy in place.  The
   caller guarantees [Buffer.length payload + 8] bytes of room. *)
let frame_into payload dst pos =
  let plen = Buffer.length payload in
  Bytes.set_int32_le dst pos (Int32.of_int plen);
  Buffer.blit payload 0 dst (pos + 4) plen;
  Bytes.set_int32_le dst (pos + 4 + plen)
    (Int32.of_int (crc32_sub (Bytes.unsafe_to_string dst) (pos + 4) plen))

(* A kept, growable run of whole frames plus the kept buffer their
   payloads are encoded into: the log writers encode each record once
   and hand the run to their channel in one [output]. *)
type frames = { payload : Buffer.t; mutable buf : Bytes.t; mutable len : int }

let frames () = { payload = Buffer.create 64; buf = Bytes.create 1024; len = 0 }

let payload fr =
  Buffer.clear fr.payload;
  fr.payload

let add_frame fr b =
  let need = fr.len + Buffer.length b + 8 in
  if need > Bytes.length fr.buf then begin
    let buf = Bytes.create (max need (2 * Bytes.length fr.buf)) in
    Bytes.blit fr.buf 0 buf 0 fr.len;
    fr.buf <- buf
  end;
  frame_into b fr.buf fr.len;
  fr.len <- need

let frames_full fr = fr.len >= 1 lsl 16
let frames_contents fr = Bytes.sub_string fr.buf 0 fr.len

let output_frames oc fr =
  output oc fr.buf 0 fr.len;
  fr.len <- 0

let decode_frames decode s =
  let n = String.length s in
  let rec go pos acc =
    if n - pos < 4 then List.rev acc
    else
      let r = reader ~pos s in
      let len = r_u32 r in
      if len <= 0 || len > n - r.pos - 4 then List.rev acc
      else
        let payload_pos = r.pos in
        let crc_pos = payload_pos + len in
        let crc = reader ~pos:crc_pos s |> r_u32 in
        if crc <> crc32_sub s payload_pos len then List.rev acc
        else
          let pr = reader ~pos:payload_pos ~limit:crc_pos s in
          match decode pr with
          | rec_ when remaining pr = 0 -> go (crc_pos + 4) (rec_ :: acc)
          | _ -> List.rev acc
          | exception Corrupt _ -> List.rev acc
          | exception Invalid_argument _ -> List.rev acc
  in
  go 0 []

(* --- spill payload kind -------------------------------------------- *)

(* Every spill-record payload opens with this byte, so a spill blob can
   never be confused with a snapshot payload (kinds 0/1), a WAL record
   (tags 1/2) or a row-log record (window family tags 0/1/2) even if a
   file is misrouted. *)
let spill_kind = 0xF5
