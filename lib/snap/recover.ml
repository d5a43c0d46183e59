module Metrics = Fw_engine.Metrics
module Stream_exec = Fw_engine.Stream_exec
module Plan = Fw_plan.Plan
module Bin = Fw_spill.Bin

type resumed = {
  checkpoint : Checkpoint.t;
  metrics : Metrics.t;
  recovered_from : int option;
  replayed_events : int;
  replayed_advances : int;
  skipped : (int * string) list;
}

let read_file path =
  try Ok (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error m -> Error m

(* Snapshot and log sequence numbers present in the directory, each
   sorted; plus the highest sequence seen anywhere (so the resumed
   process numbers its files above everything on disk, including
   corrupt snapshots it fell back past). *)
let scan dir =
  let chks = ref [] and wals = ref [] in
  Array.iter
    (fun f ->
      match Checkpoint.chk_seq f with
      | Some g -> chks := g :: !chks
      | None -> (
          match Checkpoint.wal_seq f with
          | Some g -> wals := g :: !wals
          | None -> ()))
    (Sys.readdir dir);
  ( List.sort compare !chks,
    List.sort compare !wals,
    List.fold_left max 0 (!chks @ !wals) )

(* Newest snapshot that decodes and restores, falling back past
   corrupt/truncated ones.  A snapshot is only usable if the row log
   holds at least the rows it claims ([rows_avail] is the decodable
   whole-record count); counts are monotone over snapshots, so falling
   back to an older one can only relax that requirement.  [restore]
   rebuilds the pipeline from a decoded snapshot, or says why its image
   does not restore.  Returns the snapshots skipped with their
   errors. *)
let rec latest_valid ~plan ~mode ~rows_avail ~restore dir skipped = function
  | [] -> (None, List.rev skipped)
  | g :: older -> (
      let skip m =
        latest_valid ~plan ~mode ~rows_avail ~restore dir ((g, m) :: skipped)
          older
      in
      match read_file (Filename.concat dir (Checkpoint.chk_name g)) with
      | Error m -> skip m
      | Ok data -> (
          match Codec.decode_snapshot ~plan ~mode data with
          | Error m -> skip m
          | Ok snap when snap.Codec.s_rows_persisted > rows_avail ->
              skip
                (Printf.sprintf
                   "claims %d persisted rows but the row log only holds %d"
                   snap.Codec.s_rows_persisted rows_avail)
          | Ok snap -> (
              match restore snap with
              | Ok restored -> (Some (g, snap, restored), List.rev skipped)
              | Error m -> skip m)))

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* Rewrite the row log to exactly the first [n] whole records
   (tmp + rename): drops both the torn tail and any rows beyond the
   chosen snapshot, so the resumed process appends from a clean edge.
   The records are framed as the pipeline frames them. *)
let truncate_rows dir rows n =
  let path = Filename.concat dir Checkpoint.rows_name in
  let tmp = path ^ ".tmp" in
  let fr = Bin.frames () in
  Out_channel.with_open_bin tmp (fun oc ->
      List.iter
        (fun row ->
          Codec.add_row fr row;
          if Bin.frames_full fr then Bin.output_frames oc fr)
        (take n rows);
      Bin.output_frames oc fr);
  Sys.rename tmp path

let replay_segment exec path counts =
  let events, advances = counts in
  match read_file path with
  | Error m -> Error (Printf.sprintf "unreadable log segment %s: %s" path m)
  | Ok data -> (
      try
        List.iter
          (function
            | Codec.Wal_event e ->
                Stream_exec.feed exec e;
                incr events
            | Codec.Wal_advance t ->
                Stream_exec.advance exec t;
                incr advances)
          (Codec.decode_wal data);
        Ok ()
      with Stream_exec.Late_event e ->
        Error
          (Format.asprintf
             "log event %a is older than the snapshot watermark — log and \
              snapshot disagree"
             Fw_engine.Event.pp e))

let load ~dir ?every ?on_punctuation ?retain ?fault ?(observe = true)
    ?(mode = Stream_exec.Naive) ?spill plan =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Error (Printf.sprintf "no checkpoint directory at %s" dir)
  else
    let chks, wals, max_seen = scan dir in
    if chks = [] && wals = [] then
      Error (Printf.sprintf "%s holds no snapshots and no log — nothing to recover" dir)
    else
      let rows_log =
        match read_file (Filename.concat dir Checkpoint.rows_name) with
        | Ok data -> Codec.decode_rows data
        | Error _ -> []
      in
      (* restore the cost-model counters to their at-snapshot values;
         replay re-records the post-snapshot increments through the
         normal executor paths.  The executor gets back the persisted
         row prefix the snapshot covers; rows beyond it re-emerge
         during replay. *)
      let restore s =
        let metrics = Metrics.create () in
        Metrics.record_ingest metrics s.Codec.s_ingested;
        List.iter
          (fun (w, n) -> Metrics.record metrics w n)
          s.Codec.s_processed;
        match
          Stream_exec.import ~metrics ~observe ?spill plan
            ~rows:(take s.Codec.s_rows_persisted rows_log)
            s.Codec.s_image
        with
        | exec -> Ok (metrics, exec)
        | exception Invalid_argument m ->
            Error ("snapshot does not restore: " ^ m)
      in
      let found, skipped =
        latest_valid ~plan ~mode ~rows_avail:(List.length rows_log) ~restore
          dir [] (List.rev chks)
      in
      let base =
        (* no valid snapshot: a full-history log (segment 0 onward)
           still recovers from scratch; otherwise fail closed *)
        match found with
        | Some (g, snap, (metrics, exec)) ->
            Ok (Some g, snap.Codec.s_rows_persisted, metrics, exec)
        | None ->
            if List.mem 0 wals then
              let metrics = Metrics.create () in
              Ok
                ( None,
                  0,
                  metrics,
                  Stream_exec.create ~metrics ~mode ~observe ?spill plan )
            else
              Error
                (String.concat "; "
                   (Printf.sprintf
                      "no usable snapshot in %s and no full-history log" dir
                   :: List.map
                        (fun (g, m) -> Printf.sprintf "snapshot %d: %s" g m)
                        skipped))
      in
      match base with
      | Error m -> Error m
      | Ok (recovered_from, rows_persisted, metrics, exec) -> (
          let first = match recovered_from with Some g -> g | None -> 0 in
          let max_wal = List.fold_left max (-1) wals in
          let counts = (ref 0, ref 0) in
          let rec replay g =
            if g > max_wal then Ok ()
            else if not (List.mem g wals) then
              (* a trailing gap is fine (crash between snapshot rename
                 and log rotation); a gap with later segments present
                 is data loss *)
              if List.exists (fun w -> w > g) wals then
                Error
                  (Printf.sprintf
                     "log segment %d is missing but later segments exist — \
                      refusing to resume over lost input"
                     g)
              else Ok ()
            else
              match
                replay_segment exec
                  (Filename.concat dir (Checkpoint.wal_name g))
                  counts
              with
              | Error _ as e -> e
              | Ok () -> replay (g + 1)
          in
          match replay first with
          | Error m -> Error m
          | Ok () ->
              truncate_rows dir rows_log rows_persisted;
              let checkpoint =
                Checkpoint.resume ~dir ?every ?on_punctuation ?retain ?fault
                  ~observe ~plan ~mode ~metrics ~seq:max_seen ~rows_persisted
                  exec
              in
              Ok
                {
                  checkpoint;
                  metrics;
                  recovered_from;
                  replayed_events = !(fst counts);
                  replayed_advances = !(snd counts);
                  skipped;
                })
