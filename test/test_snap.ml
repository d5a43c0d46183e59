(* Checkpoint/recovery subsystem (Fw_snap): codec round-trips for every
   aggregate state (bit-exact, adversarial floats included), corrupt-
   byte rejection, fail-closed version/fingerprint checks, and full
   crash → recover → byte-identical-finish cycles on disk. *)
open Helpers
module Codec = Fw_snap.Codec
module Checkpoint = Fw_snap.Checkpoint
module Recover = Fw_snap.Recover
module Fault = Fw_snap.Fault
module Combine = Fw_agg.Combine
module Aggregate = Fw_agg.Aggregate
module Stream_exec = Fw_engine.Stream_exec
module Metrics = Fw_engine.Metrics
module Event = Fw_engine.Event
module Plan = Fw_plan.Plan
module Batch = Fw_engine.Batch
module Bin = Fw_spill.Bin

let ev t k v = Event.make ~time:t ~key:k ~value:v

(* --- aggregate state round-trips ----------------------------------- *)

let bits = Int64.bits_of_float

let eq_view a b =
  match (a, b) with
  | Combine.V_min x, Combine.V_min y | Combine.V_max x, Combine.V_max y ->
      bits x = bits y
  | Combine.V_count n, Combine.V_count m -> n = m
  | Combine.V_sum x, Combine.V_sum y -> bits x = bits y
  | ( Combine.V_avg { sum = s1; count = c1 },
      Combine.V_avg { sum = s2; count = c2 } ) ->
      bits s1 = bits s2 && c1 = c2
  | ( Combine.V_stdev { count = c1; mean = u1; m2 = q1 },
      Combine.V_stdev { count = c2; mean = u2; m2 = q2 } ) ->
      c1 = c2 && bits u1 = bits u2 && bits q1 = bits q2
  | Combine.V_median xs, Combine.V_median ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun x y -> bits x = bits y) xs ys
  | _ -> false

(* Floats that punish a codec: signed zeros, subnormals, huge
   magnitudes, and values that only differ in the last mantissa bit. *)
let gen_val =
  QCheck2.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl
          [
            0.0;
            -0.0;
            4.9e-324;
            1e-308;
            1.7976931348623157e308;
            -1e308;
            1e8;
            1e8 +. 1e-8;
            Float.pred 1.0;
            Float.succ 1.0;
          ];
      ])

let gen_view =
  QCheck2.Gen.(
    oneof
      [
        map (fun v -> Combine.V_min v) gen_val;
        map (fun v -> Combine.V_max v) gen_val;
        map (fun n -> Combine.V_count n) (int_range 0 1_000_000);
        map (fun v -> Combine.V_sum v) gen_val;
        map2
          (fun s c -> Combine.V_avg { sum = s; count = c })
          gen_val (int_range 0 100_000);
        (* the adversarial Welford shape: a large common offset with
           tiny spread, where naive sum-of-squares loses everything —
           the codec must keep (count, mean, m2) bit-exact *)
        map2
          (fun c x ->
            Combine.V_stdev
              { count = 2 + c; mean = 1e8 +. x; m2 = Float.abs x })
          (int_range 0 10_000) gen_val;
        map
          (fun xs -> Combine.V_median xs)
          (list_size (int_range 0 24) gen_val);
      ])

let print_view v =
  Format.asprintf "%a" Combine.pp (Combine.of_view v)

let prop_state_roundtrip =
  qtest ~count:500 "state codec round-trips bit-exactly" gen_view print_view
    (fun v ->
      let st = Combine.of_view v in
      let st' = Codec.state_of_string (Codec.state_to_string st) in
      eq_view (Combine.view st) (Combine.view st'))

let prop_state_corrupt_rejected =
  (* every single-byte corruption of a state encoding must either decode
     to exactly the same view (impossible for a flip — but the property
     does not rely on that) or raise Corrupt: never crash, never return
     garbage silently accepted downstream *)
  qtest ~count:300 "corrupt state bytes rejected or harmless"
    QCheck2.Gen.(triple gen_view (int_range 0 1000) (int_range 1 255))
    (fun (v, _, _) -> print_view v)
    (fun (v, pos, x) ->
      let s = Codec.state_to_string (Combine.of_view v) in
      let pos = pos mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Codec.state_of_string (Bytes.to_string b) with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception Invalid_argument _ -> true)

let test_state_trailing_bytes_rejected () =
  let s = Codec.state_to_string (Combine.of_value Aggregate.Sum 1.5) in
  (match Codec.state_of_string (s ^ "\x00") with
  | _ -> Alcotest.fail "trailing byte accepted"
  | exception Codec.Corrupt _ -> ());
  match Codec.state_of_string (String.sub s 0 (String.length s - 1)) with
  | _ -> Alcotest.fail "truncation accepted"
  | exception Codec.Corrupt _ -> ()

(* --- snapshot round-trip and fail-closed decoding ------------------ *)

let fixture_events n =
  List.init n (fun t ->
      ev t
        (if t mod 3 = 0 then "a" else "b")
        (1e8 +. (float_of_int ((t * 13) mod 97) /. 7.0)))

(* A running executor mid-stream, with pending instances, open panes
   and populated sliding queues (incremental) or pending per-instance
   states (naive) — the non-invertible MIN/MAX two-stacks shape
   included via the Min plan. *)
let running_exec ?(agg = Aggregate.Min) ?(mode = Stream_exec.Incremental) () =
  let plan = Plan.naive agg [ w ~r:12 ~s:4; w ~r:20 ~s:4 ] in
  let metrics = Metrics.create () in
  let exec = Stream_exec.create ~metrics ~mode plan in
  List.iter (Stream_exec.feed exec) (fixture_events 37);
  (plan, mode, metrics, exec)

let snapshot_of exec metrics =
  {
    Codec.s_image = Stream_exec.export exec;
    s_rows_persisted = Stream_exec.row_count exec;
    s_ingested = Metrics.ingested metrics;
    s_processed = Metrics.per_window metrics;
  }

let test_snapshot_roundtrip_modes () =
  List.iter
    (fun (agg, mode) ->
      let plan, mode, metrics, exec = running_exec ~agg ~mode () in
      let snap = snapshot_of exec metrics in
      let data = Codec.encode_snapshot ~plan snap in
      match Codec.decode_snapshot ~plan ~mode data with
      | Error m -> Alcotest.fail ("decode failed: " ^ m)
      | Ok snap' ->
          check_bool "rows count" true
            (snap'.Codec.s_rows_persisted = snap.Codec.s_rows_persisted);
          check_int "ingested" snap.Codec.s_ingested snap'.Codec.s_ingested;
          check_bool "processed" true
            (snap'.Codec.s_processed = snap.Codec.s_processed);
          (* decode the image into a live executor and re-export it:
             every per-key state must survive its store codec bit for
             bit *)
          check_bool "engine image restores" true
            (String.equal snap.Codec.s_image
               (Stream_exec.export
                  (Stream_exec.import plan ~rows:[] snap'.Codec.s_image))))
    [
      (Aggregate.Min, Stream_exec.Incremental);
      (Aggregate.Max, Stream_exec.Incremental);
      (Aggregate.Sum, Stream_exec.Incremental);
      (Aggregate.Stdev, Stream_exec.Incremental);
      (Aggregate.Median, Stream_exec.Naive);
      (Aggregate.Avg, Stream_exec.Naive);
    ]

let prop_snapshot_corrupt_byte_rejected =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  qtest ~count:400 "snapshot single-byte corruption fails closed"
    QCheck2.Gen.(pair (int_range 0 (String.length data - 1)) (int_range 1 255))
    (fun (pos, x) -> Printf.sprintf "flip byte %d with 0x%02x" pos x)
    (fun (pos, x) ->
      let b = Bytes.of_string data in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor x));
      match Codec.decode_snapshot ~plan ~mode (Bytes.to_string b) with
      | Error _ -> true
      | Ok _ -> false)

let test_version_bump_fails_closed () =
  (* satellite: a snapshot from a future format version must be
     refused with a descriptive error, not misparsed *)
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  let b = Bytes.of_string data in
  (* version u16 sits right after the 6-byte magic *)
  Bytes.set b 6 (Char.chr (Codec.version + 1));
  match Codec.decode_snapshot ~plan ~mode (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error m ->
      check_bool "error names the version" true
        (Astring_contains.contains m "version")

let test_foreign_plan_fails_closed () =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  let other_plan = Plan.naive Aggregate.Sum [ tumbling 10 ] in
  (match Codec.decode_snapshot ~plan:other_plan ~mode data with
  | Ok _ -> Alcotest.fail "foreign plan accepted"
  | Error m ->
      check_bool "error names the plan" true
        (Astring_contains.contains m "plan"));
  (* same plan, wrong execution mode: also a different fingerprint *)
  match Codec.decode_snapshot ~plan ~mode:Stream_exec.Naive data with
  | Ok _ -> Alcotest.fail "wrong mode accepted"
  | Error _ -> ()

let test_truncated_snapshot_fails_closed () =
  let plan, mode, metrics, exec = running_exec () in
  let data = Codec.encode_snapshot ~plan (snapshot_of exec metrics) in
  List.iter
    (fun n ->
      match
        Codec.decode_snapshot ~plan ~mode (String.sub data 0 n)
      with
      | Ok _ -> Alcotest.fail "truncated snapshot accepted"
      | Error _ -> ())
    [ 0; 3; 6; 8; 20; String.length data / 2; String.length data - 1 ]

(* --- WAL and row-log framing --------------------------------------- *)

(* A log image: the records framed into one kept scratch, as the
   pipeline frames them. *)
let log_image add records =
  let fr = Bin.frames () in
  List.iter (add fr) records;
  Bin.frames_contents fr

let add_wal fr = function
  | Codec.Wal_event e ->
      Codec.add_event fr ~time:e.Event.time ~key:e.Event.key
        ~value:e.Event.value
  | Codec.Wal_advance t -> Codec.add_advance fr t

let test_wal_roundtrip_and_torn_tail () =
  let records =
    [
      Codec.Wal_event (ev 3 "k" 1.25);
      Codec.Wal_advance 7;
      Codec.Wal_event (ev 9 "long-key-with-bytes" (-0.0));
    ]
  in
  let image = log_image add_wal records in
  check_bool "full image decodes" true (Codec.decode_wal image = records);
  (* a torn tail (partial last record) must yield the clean prefix *)
  let torn = String.sub image 0 (String.length image - 3) in
  check_bool "torn tail drops last record only" true
    (Codec.decode_wal torn = [ List.nth records 0; List.nth records 1 ]);
  check_bool "garbage-only image decodes empty" true
    (Codec.decode_wal "garbage-bytes" = [])

let test_row_log_roundtrip_and_torn_tail () =
  let rows =
    let plan, _, _, exec = running_exec () in
    ignore plan;
    Stream_exec.close exec ~horizon:37
  in
  check_bool "fixture emits rows" true (List.length rows > 4);
  let image = log_image Codec.add_row rows in
  check_bool "full image decodes" true (Codec.decode_rows image = rows);
  let torn = String.sub image 0 (String.length image - 2) in
  let prefix = Codec.decode_rows torn in
  check_int "torn tail drops exactly the last row"
    (List.length rows - 1)
    (List.length prefix);
  check_bool "prefix intact" true
    (prefix = List.filteri (fun i _ -> i < List.length rows - 1) rows)

(* --- the one framing routine ---------------------------------------- *)

module Window = Fw_window.Window
module Interval = Fw_window.Interval
module Row = Fw_engine.Row

(* The framing every log used before records were framed in place
   ([Bin.frame]), kept here as the reference. *)
let reference_frame payload =
  let b = Buffer.create (String.length payload + 8) in
  Bin.w_u32 b (String.length payload);
  Buffer.add_string b payload;
  Bin.w_u32 b (Bin.crc32 payload);
  Buffer.contents b

(* Reference payloads, written field by field with the Bin writers. *)
let payload_of f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let wal_payload = function
  | Codec.Wal_event e ->
      payload_of (fun b ->
          Bin.w_u8 b 1;
          Bin.w_i64 b e.Event.time;
          Bin.w_string b e.Event.key;
          Bin.w_float b e.Event.value)
  | Codec.Wal_advance t ->
      payload_of (fun b ->
          Bin.w_u8 b 2;
          Bin.w_i64 b t)

let row_payload (row : Row.t) =
  payload_of (fun b ->
      (match row.Row.window with
      | Window.Hop { domain = Window.Time; range; slide } ->
          Bin.w_u8 b 0;
          Bin.w_i64 b range;
          Bin.w_i64 b slide
      | Window.Hop { domain = Window.Count; range; slide } ->
          Bin.w_u8 b 1;
          Bin.w_i64 b range;
          Bin.w_i64 b slide
      | Window.Session { gap } ->
          Bin.w_u8 b 2;
          Bin.w_i64 b gap);
      Bin.w_i64 b (Interval.lo row.Row.interval);
      Bin.w_i64 b (Interval.hi row.Row.interval);
      Bin.w_string b row.Row.key;
      Bin.w_float b row.Row.value)

let gen_log_value =
  QCheck2.Gen.(
    frequency
      [
        (3, float);
        (2, oneofl [ 0.0; -0.0; nan; infinity; neg_infinity ]);
        (1, map Int64.float_of_bits int64);
      ])

let gen_log_key =
  QCheck2.Gen.(
    frequency
      [ (4, string_size (int_range 0 8)); (1, string_size (int_range 0 300)) ])

let gen_wal_record =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun time key value ->
              Codec.Wal_event (Event.make ~time ~key ~value))
            (int_range 0 (1 lsl 40)) gen_log_key gen_log_value );
        (1, map (fun t -> Codec.Wal_advance t) int);
      ])

let gen_log_row =
  QCheck2.Gen.(
    let* window =
      let* s = int_range 1 50 and* k = int_range 1 8 in
      oneofl
        [
          Window.make ~range:(k * s) ~slide:s;
          Window.count_hop ~range:(k * s) ~slide:s;
          Window.session ~gap:s;
        ]
    in
    let* lo = int_range 0 (1 lsl 40) and* len = int_range 1 1000 in
    let* key = gen_log_key and* value = gen_log_value in
    return
      { Row.window; interval = Interval.make ~lo ~hi:(lo + len); key; value })

(* A decoder that hands back each intact frame's payload as is. *)
let raw_payload r =
  let s = String.sub r.Bin.src r.Bin.pos (Bin.remaining r) in
  r.Bin.pos <- r.Bin.limit;
  s

(* Frame the records into one kept scratch with [add]; the run must be
   the reference frames back to back, the typed decoder must give every
   payload back, a cut at any byte offset must decode to exactly the
   records wholly before it, and the CRC carried across any split
   point must equal the CRC of the whole. *)
let framing_holds records ~payload ~add ~decode =
  let s = log_image add records in
  let payloads = List.map payload records in
  let n = String.length s in
  let ends =
    List.rev
      (snd
         (List.fold_left
            (fun (pos, acc) p ->
              let e = pos + String.length p + 8 in
              (e, e :: acc))
            (0, []) payloads))
  in
  let intact c =
    List.filteri (fun i _ -> List.nth ends i <= c) payloads
  in
  let whole = Bin.crc32 s in
  String.equal s (String.concat "" (List.map reference_frame payloads))
  && List.map payload (decode s) = payloads
  && List.for_all
       (fun c -> Bin.decode_frames raw_payload (String.sub s 0 c) = intact c)
       (List.init (n + 1) Fun.id)
  && List.for_all
       (fun k -> Bin.crc32_update (Bin.crc32_sub s 0 k) s k (n - k) = whole)
       (List.init (n + 1) Fun.id)

let prop_framing_matches_reference =
  qtest ~count:100 "log framing = reference frames; cuts decode the prefix"
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 40) gen_wal_record)
        (list_size (int_range 0 24) gen_log_row))
    (fun (wal, rows) ->
      Printf.sprintf "%d WAL records, %d rows" (List.length wal)
        (List.length rows))
    (fun (wal, rows) ->
      framing_holds wal ~payload:wal_payload ~add:add_wal
        ~decode:Codec.decode_wal
      && framing_holds rows ~payload:row_payload ~add:Codec.add_row
           ~decode:Codec.decode_rows)

(* --- checkpoint / recover cycles on disk --------------------------- *)

let temp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "fw_test_snap_%d_%d" (Unix.getpid ()) !n)
    in
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    d

let rm_rf d =
  if Sys.file_exists d then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
      (Sys.readdir d);
    try Sys.rmdir d with Sys_error _ -> ()
  end

let cycle_plan = Plan.naive Aggregate.Sum [ w ~r:12 ~s:4; w ~r:20 ~s:4 ]
let cycle_events = fixture_events 100
let cycle_horizon = 100

let plain_run mode =
  let metrics = Metrics.create () in
  let rows =
    Stream_exec.run ~metrics ~mode cycle_plan ~horizon:cycle_horizon
      cycle_events
  in
  (rows, metrics)

(* Feed the first [k] events through a checkpointed pipeline, then
   abandon it cold — exactly what a dead process leaves on disk. *)
let crash_after ~dir ~every ~mode k =
  let cp = Checkpoint.create ~dir ~every ~mode cycle_plan in
  List.iteri (fun i e -> if i < k then Checkpoint.feed cp e) cycle_events;
  ignore cp

let finish_from ~dir ~every ~mode k =
  match Recover.load ~dir ~every ~mode cycle_plan with
  | Error m -> Alcotest.fail ("recovery failed: " ^ m)
  | Ok r ->
      List.iteri
        (fun i e ->
          if i >= k then Checkpoint.feed r.Recover.checkpoint e)
        cycle_events;
      (Checkpoint.close r.Recover.checkpoint ~horizon:cycle_horizon, r)

let check_identical mode (rows, r) =
  let rows0, m0 = plain_run mode in
  check_bool "rows byte-identical" true (rows = rows0);
  check_int "ingested identical" (Metrics.ingested m0)
    (Metrics.ingested r.Recover.metrics);
  check_bool "per-window counters identical" true
    (Metrics.per_window m0 = Metrics.per_window r.Recover.metrics)

let test_crash_recover_cycle () =
  List.iter
    (fun mode ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          crash_after ~dir ~every:17 ~mode 61;
          let rows_r = finish_from ~dir ~every:17 ~mode 61 in
          check_identical mode rows_r))
    [ Stream_exec.Naive; Stream_exec.Incremental ]

let test_recover_falls_back_past_corrupt_snapshot () =
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      crash_after ~dir ~every:17 ~mode 61;
      (* bit-rot the newest snapshot on disk *)
      let newest =
        Array.to_list (Sys.readdir dir)
        |> List.filter_map Checkpoint.chk_seq
        |> List.fold_left max 0
      in
      let path = Filename.concat dir (Checkpoint.chk_name newest) in
      let data = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string data in
      Bytes.set b
        (String.length data / 2)
        (Char.chr (Char.code (Bytes.get b (String.length data / 2)) lxor 0x40));
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (Bytes.to_string b));
      let rows, r = finish_from ~dir ~every:17 ~mode 61 in
      check_bool "fell back below newest" true
        (match r.Recover.recovered_from with
        | Some g -> g < newest
        | None -> false);
      check_bool "skip reason recorded" true
        (List.exists (fun (g, _) -> g = newest) r.Recover.skipped);
      check_identical mode (rows, r))

let test_recover_rejects_short_row_log () =
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      crash_after ~dir ~every:17 ~mode 61;
      (* lose most of the row log: every snapshot claiming more rows
         than remain must be skipped, with the shortage as the reason *)
      let path = Filename.concat dir Checkpoint.rows_name in
      let data = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub data 0 8));
      match Recover.load ~dir ~mode cycle_plan with
      | Ok r ->
          (* only acceptable if it fell back to replaying everything
             from the full-history log segment *)
          check_bool "full replay from scratch" true
            (r.Recover.recovered_from = None)
      | Error m ->
          check_bool "error mentions rows" true
            (Astring_contains.contains m "row"))

let test_recover_empty_dir_fails () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      match Recover.load ~dir ~mode:Stream_exec.Naive cycle_plan with
      | Ok _ -> Alcotest.fail "empty dir recovered"
      | Error _ -> ())

let test_torn_snapshot_write_recovers () =
  (* fault injection: the last snapshot write is torn mid-file, then the
     process dies — recovery must fall back and still finish
     byte-identically *)
  let mode = Stream_exec.Incremental in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fault = Fault.create ~crash_at_event:61 ~torn_bytes:5 () in
      let cp = Checkpoint.create ~dir ~every:17 ~fault ~mode cycle_plan in
      (match
         List.iteri
           (fun i e -> if i < 70 then Checkpoint.feed cp e)
           cycle_events
       with
      | () -> Alcotest.fail "fault did not fire"
      | exception Fault.Crash _ -> ());
      let rows_r = finish_from ~dir ~every:17 ~mode 61 in
      check_identical mode rows_r)

(* --- frame-level corruption ------------------------------------- *)

(* A CRC-valid frame around a corrupted engine image: the frame checks
   cannot see the damage, so the image decoder must.  Every single-byte
   flip must end in a typed [Error] from the decoder or an
   [Invalid_argument] from the restore that [Recover.load] treats as a
   skipped snapshot — never another exception. *)
let prop_image_corruption_typed =
  let plan, mode, metrics, exec = running_exec () in
  let snap = snapshot_of exec metrics in
  let flip s pos v =
    let b = Bytes.of_string s in
    let pos = pos mod Bytes.length b in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor v));
    Bytes.to_string b
  in
  qtest ~count:400 "CRC-valid image corruption ends in a typed error"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 1 255))
    (fun (pos, v) -> Printf.sprintf "flip image byte %d with 0x%02x" pos v)
    (fun (pos, v) ->
      match
        Codec.encode_snapshot ~plan
          { snap with Codec.s_image = flip snap.Codec.s_image pos v }
      with
      | exception Invalid_argument _ -> true (* mode byte: unencodable *)
      | data -> (
          match Codec.decode_snapshot ~plan ~mode data with
          | Error _ -> true
          | Ok s -> (
              match Stream_exec.import plan ~rows:[] s.Codec.s_image with
              | _ -> true
              | exception Invalid_argument _ -> true)))

let test_kind_confusion_fails_closed () =
  (* same plan, same mode, valid CRC — only the payload's kind byte
     differs from a real engine snapshot's *)
  let mode = Stream_exec.Incremental in
  let metrics = Metrics.create () in
  let exec = Stream_exec.create ~metrics ~mode cycle_plan in
  List.iter (Stream_exec.feed exec) (fixture_events 37);
  let blob = Codec.encode_snapshot ~plan:cycle_plan (snapshot_of exec metrics) in
  (* frame: magic | version u16 | fingerprint | payload length | payload
     | crc32 *)
  let header = String.length "FWSNAP" + 2 + 8 + 8 in
  let payload =
    Bytes.of_string (String.sub blob header (String.length blob - header - 4))
  in
  check_int "engine kind byte" 0 (Char.code (Bytes.get payload 0));
  Bytes.set payload 0 '\001';
  let payload = Bytes.to_string payload in
  let b = Buffer.create (String.length blob) in
  Buffer.add_string b (String.sub blob 0 header);
  Buffer.add_string b payload;
  Bin.w_u32 b (Bin.crc32 payload);
  match Codec.decode_snapshot ~plan:cycle_plan ~mode (Buffer.contents b) with
  | Ok _ -> Alcotest.fail "engine decoder accepted a kind-1 payload"
  | Error m ->
      check_bool "error names the snapshot kind" true
        (Astring_contains.contains m "kind 1")

let test_name_parsing () =
  check_bool "chk name round-trips" true
    (Checkpoint.chk_seq (Checkpoint.chk_name 42) = Some 42);
  check_bool "wal name round-trips" true
    (Checkpoint.wal_seq (Checkpoint.wal_name 0) = Some 0);
  check_bool "cross parse rejected" true
    (Checkpoint.chk_seq (Checkpoint.wal_name 3) = None);
  check_bool "junk rejected" true (Checkpoint.chk_seq "chk-x.fws" = None)

(* A late event offered to a pipeline — alone, or made late by a mark
   earlier in its own batch — is rejected before anything is logged:
   the WAL does not grow, recovery from the directory succeeds, and the
   finished rows are byte-identical to an engine that never saw it. *)
let test_late_event_leaves_no_log () =
  List.iter
    (fun mode ->
      let dir = temp_dir () in
      Fun.protect
        ~finally:(fun () -> rm_rf dir)
        (fun () ->
          let wal_bytes () =
            Array.fold_left
              (fun acc f ->
                match Checkpoint.wal_seq f with
                | Some _ -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
                | None -> acc)
              0 (Sys.readdir dir)
          in
          let rejects label f =
            match f () with
            | () -> Alcotest.failf "%s: late event accepted" label
            | exception Stream_exec.Late_event _ -> ()
          in
          let first, rest =
            List.partition (fun e -> e.Event.time < 50) cycle_events
          in
          let cp = Checkpoint.create ~dir ~every:17 ~mode cycle_plan in
          List.iter (Checkpoint.feed cp) first;
          let logged = wal_bytes () in
          rejects "alone" (fun () -> Checkpoint.feed cp (ev 3 "a" 1.0));
          rejects "behind a mid-batch mark" (fun () ->
              Checkpoint.feed_batch cp
                (Batch.of_slots
                   [
                     Batch.Ev (ev 50 "a" 1.0);
                     Batch.Punct 60;
                     Batch.Ev (ev 55 "b" 2.0);
                   ]));
          check_int "no WAL record" logged (wal_bytes ());
          List.iter (Checkpoint.feed cp) rest;
          (* abandoned cold, like a dead process *)
          ignore cp;
          match Recover.load ~dir ~every:17 ~mode cycle_plan with
          | Error m -> Alcotest.fail ("recovery failed: " ^ m)
          | Ok r ->
              check_identical mode
                (Checkpoint.close r.Recover.checkpoint ~horizon:cycle_horizon, r)))
    [ Stream_exec.Naive; Stream_exec.Incremental ]

(* --- golden directory bytes ---------------------------------------- *)

(* One fixed pipeline per mode, fed per event and in batches of 64 with
   a punctuation inside every batch; [every = 17] lands snapshot cuts
   mid-batch.  Three directory states are pinned by the MD5 of every
   file: an uninterrupted run, the directory a crash at a mid-batch
   ordinal leaves behind, and that directory after recovery and close.
   The digests were recorded before the write path was rebuilt to
   encode each record in place; per-event and batched feeding must
   both reproduce them. *)
let golden_plan = Plan.naive Aggregate.Sum [ w ~r:12 ~s:4; w ~r:20 ~s:6 ]
let golden_keys = [| "a"; "bb"; ""; "a-longer-key-\001\255" |]

let golden_slots =
  List.concat
    (List.init 300 (fun t ->
         let v =
           if t mod 29 = 0 then -0.0
           else if t mod 31 = 0 then 1e300
           else float_of_int ((t * 37) mod 101) /. 8.0
         in
         let e = Batch.Ev (ev t golden_keys.(t * 7 mod 4) v) in
         if t mod 64 = 30 then [ e; Batch.Punct (t + 1) ] else [ e ]))

let golden_horizon = 320
let golden_crash = 150

(* Feed [slots] per event, or cut into batches of 64 events each
   (trailing marks ride with the batch before them). *)
let golden_feed ~batched cp slots =
  if not batched then
    List.iter
      (function
        | Batch.Ev e -> Checkpoint.feed cp e
        | Batch.Punct wm -> Checkpoint.advance cp wm)
      slots
  else
    let rec chunks acc n = function
      | [] ->
          if acc <> [] then
            Checkpoint.feed_batch cp (Batch.of_slots (List.rev acc))
      | (Batch.Ev _ as s) :: tl when n = 64 ->
          Checkpoint.feed_batch cp (Batch.of_slots (List.rev acc));
          chunks [ s ] 1 tl
      | (Batch.Ev _ as s) :: tl -> chunks (s :: acc) (n + 1) tl
      | s :: tl -> chunks (s :: acc) n tl
    in
    chunks [] 0 slots

let dir_digests dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         f ^ " " ^ Digest.to_hex (Digest.file (Filename.concat dir f)))

let golden_run ~batched mode =
  let full =
    let dir = temp_dir () in
    Fun.protect
      ~finally:(fun () -> rm_rf dir)
      (fun () ->
        let cp = Checkpoint.create ~dir ~every:17 ~mode golden_plan in
        golden_feed ~batched cp golden_slots;
        ignore (Checkpoint.close cp ~horizon:golden_horizon);
        dir_digests dir)
  in
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let fault = Fault.create ~crash_at_event:golden_crash () in
      let cp = Checkpoint.create ~dir ~every:17 ~fault ~mode golden_plan in
      (match golden_feed ~batched cp golden_slots with
      | () -> Alcotest.fail "fault did not fire"
      | exception Fault.Crash _ -> ());
      let crashed = dir_digests dir in
      let rec after n = function
        | [] -> []
        | (Batch.Ev _ :: tl) when n = 1 -> tl
        | Batch.Ev _ :: tl -> after (n - 1) tl
        | _ :: tl -> after n tl
      in
      match Recover.load ~dir ~every:17 ~mode golden_plan with
      | Error m -> Alcotest.fail ("recovery failed: " ^ m)
      | Ok r ->
          golden_feed ~batched r.Recover.checkpoint
            (after golden_crash golden_slots);
          ignore
            (Checkpoint.close r.Recover.checkpoint ~horizon:golden_horizon);
          (full, crashed, dir_digests dir))

(* Recorded at 36157b6 (per-event and batched runs differ only in
   rows.log, whose emission order follows the batch segments). *)
let golden_digests =
  [
    ( (Stream_exec.Naive, false),
      ( [
          "chk-000000015.fws 4f25996b82e0e2a1892aa3d85de95282";
          "chk-000000016.fws 70058c4bb20cfe130cac5627adf42ac0";
          "chk-000000017.fws b7b9e999546966601cb09859dafda9bb";
          "rows.log 1f90352bc7fae21072f2de4155ff05b5";
          "wal-000000014.log 98a27e362e3b50851940fb2c7aa4d490";
          "wal-000000015.log ad00f615a6d5370513a8563ada078f9a";
          "wal-000000016.log b4b2f310e5e422224878fa9e0f04fd1d";
          "wal-000000017.log e9cfd3bf49b952666a13b61b42ee02fe";
        ],
        [
          "chk-000000006.fws f7a8e986f65acdad9172658d6440610d";
          "chk-000000007.fws 3b027113d425d1eb3495e65a4fae2614";
          "chk-000000008.fws 2cfb4fc000daebb8cd5a6c017cbd8450";
          "rows.log 55b9112d9e8e51b32dfb5a3806cdc555";
          "wal-000000005.log 46e71a0eb2b186e18e706963e88b86af";
          "wal-000000006.log 669dc72ca96b3c5ae2a450ff6fe125da";
          "wal-000000007.log 7912d7b0f34f32c604f9c2ecccc7f68d";
          "wal-000000008.log 6534f69c9ffc091b79d5e0a4c47b4d0e";
        ],
        [
          "chk-000000015.fws 8cb83f00cb957969a4c8ac8b672b2448";
          "chk-000000016.fws 565666bac2a9b2e74161efd6cc7fff9a";
          "chk-000000017.fws fa7169a18ccb4ca51fecd085ff58b392";
          "rows.log 1f90352bc7fae21072f2de4155ff05b5";
          "wal-000000014.log e0abc9bcf43eb6bfa5421997d8e8bc90";
          "wal-000000015.log d2b019940ccef93e16977037ebbc555a";
          "wal-000000016.log e7e6038cd413b785d0809f8fd7e29d2b";
          "wal-000000017.log a4e8d8b9741c1953efaabee63052fee3";
        ] ) );
    ( (Stream_exec.Naive, true),
      ( [
          "chk-000000015.fws 4f25996b82e0e2a1892aa3d85de95282";
          "chk-000000016.fws 70058c4bb20cfe130cac5627adf42ac0";
          "chk-000000017.fws b7b9e999546966601cb09859dafda9bb";
          "rows.log fd32b6987dd4ebd7d040bbd897a48db7";
          "wal-000000014.log 98a27e362e3b50851940fb2c7aa4d490";
          "wal-000000015.log ad00f615a6d5370513a8563ada078f9a";
          "wal-000000016.log b4b2f310e5e422224878fa9e0f04fd1d";
          "wal-000000017.log e9cfd3bf49b952666a13b61b42ee02fe";
        ],
        [
          "chk-000000006.fws f7a8e986f65acdad9172658d6440610d";
          "chk-000000007.fws 3b027113d425d1eb3495e65a4fae2614";
          "chk-000000008.fws 2cfb4fc000daebb8cd5a6c017cbd8450";
          "rows.log 94fe8c2b99c6a82ae9ff805fb99f2278";
          "wal-000000005.log 46e71a0eb2b186e18e706963e88b86af";
          "wal-000000006.log 669dc72ca96b3c5ae2a450ff6fe125da";
          "wal-000000007.log 7912d7b0f34f32c604f9c2ecccc7f68d";
          "wal-000000008.log 6534f69c9ffc091b79d5e0a4c47b4d0e";
        ],
        [
          "chk-000000015.fws 8cb83f00cb957969a4c8ac8b672b2448";
          "chk-000000016.fws 565666bac2a9b2e74161efd6cc7fff9a";
          "chk-000000017.fws fa7169a18ccb4ca51fecd085ff58b392";
          "rows.log 6aa485fe80af336f64fa071fa2358c27";
          "wal-000000014.log e0abc9bcf43eb6bfa5421997d8e8bc90";
          "wal-000000015.log d2b019940ccef93e16977037ebbc555a";
          "wal-000000016.log e7e6038cd413b785d0809f8fd7e29d2b";
          "wal-000000017.log a4e8d8b9741c1953efaabee63052fee3";
        ] ) );
    ( (Stream_exec.Incremental, false),
      ( [
          "chk-000000015.fws 78ab0cddaae2fcf3df0b3958075b70e2";
          "chk-000000016.fws 9dc3c43c78539941789a0902bd5534a6";
          "chk-000000017.fws 04b842ed908ee30a755dbdfa321abd67";
          "rows.log f23439119dc61d0ec4a3aa431a0db49e";
          "wal-000000014.log 98a27e362e3b50851940fb2c7aa4d490";
          "wal-000000015.log ad00f615a6d5370513a8563ada078f9a";
          "wal-000000016.log b4b2f310e5e422224878fa9e0f04fd1d";
          "wal-000000017.log e9cfd3bf49b952666a13b61b42ee02fe";
        ],
        [
          "chk-000000006.fws 1a12b6d6e32daa7afea834d6e7e9e9e6";
          "chk-000000007.fws fd48afaf6e0377e272e2e6149c8df301";
          "chk-000000008.fws 72e403c181f4520551f3f62581f77cd4";
          "rows.log 3e5ae34eb99c390f86014f426097b9f6";
          "wal-000000005.log 46e71a0eb2b186e18e706963e88b86af";
          "wal-000000006.log 669dc72ca96b3c5ae2a450ff6fe125da";
          "wal-000000007.log 7912d7b0f34f32c604f9c2ecccc7f68d";
          "wal-000000008.log 6534f69c9ffc091b79d5e0a4c47b4d0e";
        ],
        [
          "chk-000000015.fws 5ad3984879b1f7d69285946300728ad7";
          "chk-000000016.fws f80d592e9db3a35614e78b5962e98b01";
          "chk-000000017.fws 087d17b6b96dd1db0df986494a006ab7";
          "rows.log f23439119dc61d0ec4a3aa431a0db49e";
          "wal-000000014.log e0abc9bcf43eb6bfa5421997d8e8bc90";
          "wal-000000015.log d2b019940ccef93e16977037ebbc555a";
          "wal-000000016.log e7e6038cd413b785d0809f8fd7e29d2b";
          "wal-000000017.log a4e8d8b9741c1953efaabee63052fee3";
        ] ) );
    ( (Stream_exec.Incremental, true),
      ( [
          "chk-000000015.fws 78ab0cddaae2fcf3df0b3958075b70e2";
          "chk-000000016.fws 9dc3c43c78539941789a0902bd5534a6";
          "chk-000000017.fws 04b842ed908ee30a755dbdfa321abd67";
          "rows.log d94b03e6a82cc9e7bf8a54221aa0425d";
          "wal-000000014.log 98a27e362e3b50851940fb2c7aa4d490";
          "wal-000000015.log ad00f615a6d5370513a8563ada078f9a";
          "wal-000000016.log b4b2f310e5e422224878fa9e0f04fd1d";
          "wal-000000017.log e9cfd3bf49b952666a13b61b42ee02fe";
        ],
        [
          "chk-000000006.fws 1a12b6d6e32daa7afea834d6e7e9e9e6";
          "chk-000000007.fws fd48afaf6e0377e272e2e6149c8df301";
          "chk-000000008.fws 72e403c181f4520551f3f62581f77cd4";
          "rows.log f115fbe0ae1f501ebe5b9f586d3457b2";
          "wal-000000005.log 46e71a0eb2b186e18e706963e88b86af";
          "wal-000000006.log 669dc72ca96b3c5ae2a450ff6fe125da";
          "wal-000000007.log 7912d7b0f34f32c604f9c2ecccc7f68d";
          "wal-000000008.log 6534f69c9ffc091b79d5e0a4c47b4d0e";
        ],
        [
          "chk-000000015.fws 5ad3984879b1f7d69285946300728ad7";
          "chk-000000016.fws f80d592e9db3a35614e78b5962e98b01";
          "chk-000000017.fws 087d17b6b96dd1db0df986494a006ab7";
          "rows.log 29274df77600ff3c8496e7b1e56f95b6";
          "wal-000000014.log e0abc9bcf43eb6bfa5421997d8e8bc90";
          "wal-000000015.log d2b019940ccef93e16977037ebbc555a";
          "wal-000000016.log e7e6038cd413b785d0809f8fd7e29d2b";
          "wal-000000017.log a4e8d8b9741c1953efaabee63052fee3";
        ] ) );
  ]

let test_golden_directory_bytes () =
  List.iter
    (fun ((mode, batched), (full, crashed, recovered)) ->
      let full', crashed', recovered' = golden_run ~batched mode in
      let check stage expected actual =
        Alcotest.(check (list string))
          (Printf.sprintf "%s %s%s" stage
             (match mode with
             | Stream_exec.Naive -> "naive"
             | Stream_exec.Incremental -> "incremental")
             (if batched then " batched" else ""))
          expected actual
      in
      check "uninterrupted" full full';
      check "crashed" crashed crashed';
      check "recovered" recovered recovered')
    golden_digests

(* A fresh pipeline over a directory an earlier run used is refused
   before it writes anything: reusing it would number the new run's
   files among the stale ones, and recovery would then fail on a
   missing log segment (or, worse, replay the old run's history). *)
let test_create_refuses_used_dir () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cp = Checkpoint.create ~dir ~every:17 cycle_plan in
      List.iter (Checkpoint.feed cp) cycle_events;
      ignore (Checkpoint.close cp ~horizon:cycle_horizon);
      let before = dir_digests dir in
      let stale =
        List.filter
          (fun f ->
            Checkpoint.chk_seq f <> None || Checkpoint.wal_seq f <> None)
          (Array.to_list (Sys.readdir dir))
      in
      (match
         Checkpoint.create ~dir ~every:17
           ~fault:(Fault.create ~crash_at_event:40 ())
           cycle_plan
       with
      | _ -> Alcotest.fail "a used directory was reused"
      | exception Invalid_argument m ->
          check_bool "message names the directory" true
            (Astring_contains.contains m dir);
          check_bool "message names a stale file" true
            (List.exists (Astring_contains.contains m) stale));
      Alcotest.(check (list string)) "nothing written" before (dir_digests dir))

let suite =
  [
    prop_state_roundtrip;
    prop_state_corrupt_rejected;
    Alcotest.test_case "state trailing bytes rejected" `Quick
      test_state_trailing_bytes_rejected;
    Alcotest.test_case "snapshot round-trip (all modes)" `Quick
      test_snapshot_roundtrip_modes;
    prop_snapshot_corrupt_byte_rejected;
    Alcotest.test_case "version bump fails closed" `Quick
      test_version_bump_fails_closed;
    Alcotest.test_case "foreign plan/mode fails closed" `Quick
      test_foreign_plan_fails_closed;
    Alcotest.test_case "truncated snapshot fails closed" `Quick
      test_truncated_snapshot_fails_closed;
    Alcotest.test_case "wal round-trip + torn tail" `Quick
      test_wal_roundtrip_and_torn_tail;
    Alcotest.test_case "row log round-trip + torn tail" `Quick
      test_row_log_roundtrip_and_torn_tail;
    Alcotest.test_case "crash/recover cycle (both modes)" `Quick
      test_crash_recover_cycle;
    Alcotest.test_case "fallback past corrupt snapshot" `Quick
      test_recover_falls_back_past_corrupt_snapshot;
    Alcotest.test_case "short row log rejected" `Quick
      test_recover_rejects_short_row_log;
    Alcotest.test_case "empty dir fails" `Quick test_recover_empty_dir_fails;
    Alcotest.test_case "torn snapshot write recovers" `Quick
      test_torn_snapshot_write_recovers;
    prop_image_corruption_typed;
    Alcotest.test_case "snapshot kind confusion fails closed" `Quick
      test_kind_confusion_fails_closed;
    Alcotest.test_case "file name parsing" `Quick test_name_parsing;
    Alcotest.test_case "late event rejected before logging" `Quick
      test_late_event_leaves_no_log;
    Alcotest.test_case "golden directory bytes (both modes)" `Quick
      test_golden_directory_bytes;
    Alcotest.test_case "create refuses a used directory" `Quick
      test_create_refuses_used_dir;
    prop_framing_matches_reference;
  ]
