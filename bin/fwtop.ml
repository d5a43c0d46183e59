(* fwtop: live terminal dashboard over a running `fwopt run --serve`.

   Polls the scrape endpoint (GET /metrics), parses the Prometheus
   exposition back into samples (Fw_obs.Export.parse_prometheus — the
   exact inverse of the exporter) and renders per-node throughput,
   watermark lag and spill residency.  Each poll also refreshes the
   server's meter, so the *_per_sec gauges shown are derived at
   exactly the cadence displayed. *)

open Cmdliner

let write_all fd s =
  let n = String.length s in
  let buf = Bytes.unsafe_of_string s in
  let rec go off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | 0 -> ()
      | k -> go (off + k)
  in
  go 0

(* Minimal blocking HTTP GET: returns (status line, body). *)
let http_get ~host ~port ~path =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock addr;
      write_all sock
        (Printf.sprintf
           "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n" path
           host);
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let k = Unix.read sock chunk 0 4096 in
        if k > 0 then begin
          Buffer.add_subbytes buf chunk 0 k;
          drain ()
        end
      in
      drain ();
      let s = Buffer.contents buf in
      let rec find_sep i =
        if i + 4 > String.length s then None
        else if String.sub s i 4 = "\r\n\r\n" then Some i
        else find_sep (i + 1)
      in
      match find_sep 0 with
      | None -> failwith "malformed HTTP response"
      | Some i ->
          let head = String.sub s 0 i in
          let body = String.sub s (i + 4) (String.length s - i - 4) in
          let status =
            match String.index_opt head '\r' with
            | Some e -> String.sub s 0 e
            | None -> head
          in
          (status, body))

(* --- sample access -------------------------------------------------- *)

let label k labels = Option.value ~default:"" (List.assoc_opt k labels)

let value samples name =
  List.find_map
    (fun (n, ls, v) -> if n = name && ls = [] then Some v else None)
    samples

(* --- rendering ------------------------------------------------------ *)

let table header rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let line cells =
    String.concat "  "
      (List.map2
         (fun w c -> c ^ String.make (w - String.length c) ' ')
         widths cells)
  in
  String.concat "\n"
    (line header
    :: String.concat "  " (List.map (fun w -> String.make w '-') widths)
    :: List.map line rows)

let fmt_rate = function
  | None -> "-"
  | Some v -> Printf.sprintf "%.1f/s" v

let fmt_count = function None -> "-" | Some v -> Printf.sprintf "%.0f" v

let fmt_bytes = function
  | None -> "-"
  | Some v ->
      if v >= 1048576. then Printf.sprintf "%.1fMiB" (v /. 1048576.)
      else if v >= 1024. then Printf.sprintf "%.1fKiB" (v /. 1024.)
      else Printf.sprintf "%.0fB" v

let fmt_lag_ns v =
  if v >= 1e9 then Printf.sprintf "%.2fs" (v /. 1e9)
  else if v >= 1e6 then Printf.sprintf "%.1fms" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fus" (v /. 1e3)
  else Printf.sprintf "%.0fns" v

let render ~host ~port samples =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "fwtop — http://%s:%d/metrics" host port;
  line "ingested %s (%s)  watermark %s  lag %s  scrapes %s"
    (fmt_count (value samples "engine_ingested_events_total"))
    (fmt_rate (value samples "engine_ingested_events_per_sec"))
    (fmt_count (value samples "engine_watermark_ticks"))
    (match value samples "engine_watermark_lag_ns" with
    | None -> "-"
    | Some v -> fmt_lag_ns v)
    (fmt_count (value samples "scrape_requests_total"));
  (* per-node: group every node_* series by its node label *)
  let nodes = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, v) ->
      match List.assoc_opt "node" labels with
      | Some id when String.length name >= 5 && String.sub name 0 5 = "node_"
        ->
          let id = int_of_string id in
          let kind = label "kind" labels and w = label "window" labels in
          let entry =
            match Hashtbl.find_opt nodes id with
            | Some e -> e
            | None ->
                let e = (kind, w, Hashtbl.create 8) in
                Hashtbl.add nodes id e;
                e
          in
          let _, _, series = entry in
          Hashtbl.replace series name v
      | _ -> ())
    samples;
  let ids = Hashtbl.fold (fun id _ acc -> id :: acc) nodes [] in
  let rows =
    List.map
      (fun id ->
        let kind, w, series = Hashtbl.find nodes id in
        let get n = Hashtbl.find_opt series n in
        let cnt n = fmt_count (get n) in
        let rate n = fmt_rate (get n) in
        [
          string_of_int id;
          kind;
          w;
          cnt "node_rows_in_total";
          rate "node_rows_in_per_sec";
          cnt "node_rows_out_total";
          cnt "node_fires_total";
          rate "node_fires_per_sec";
        ])
      (List.sort compare ids)
  in
  if rows <> [] then begin
    line "";
    Buffer.add_string buf
      (table
         [ "node"; "kind"; "window"; "in"; "in/s"; "out"; "fires"; "fires/s" ]
         rows);
    Buffer.add_string buf "\n"
  end;
  (* residency section, present only for budgeted (spilling) runs;
     series are unlabeled for a single-engine run and labeled by
     {group} when a server runs one pool per query group — sum both *)
  let spill_sum name =
    match
      List.filter_map
        (fun (n, _, v) -> if n = name then Some v else None)
        samples
    with
    | [] -> None
    | vs -> Some (List.fold_left ( +. ) 0. vs)
  in
  if spill_sum "spill_resident_keys" <> None then begin
    line "";
    line "spill: resident %s keys / %s  on disk %s  evictions %s (%s)  \
          faults %s (%s)  compactions %s"
      (fmt_count (spill_sum "spill_resident_keys"))
      (fmt_bytes (spill_sum "spill_resident_bytes"))
      (fmt_bytes (spill_sum "spill_disk_bytes"))
      (fmt_count (spill_sum "spill_evictions_total"))
      (fmt_rate (spill_sum "spill_evictions_per_sec"))
      (fmt_count (spill_sum "spill_faults_total"))
      (fmt_rate (spill_sum "spill_faults_per_sec"))
      (fmt_count (spill_sum "spill_compactions_total"));
    let groups =
      List.filter_map
        (fun (n, ls, v) ->
          if n = "spill_resident_bytes" then
            Option.map (fun g -> (g, v)) (List.assoc_opt "group" ls)
          else None)
        samples
      |> List.sort compare
    in
    if List.length groups > 1 then
      line "spill groups: %s"
        (String.concat "  "
           (List.map
              (fun (g, v) -> Printf.sprintf "g%s=%s" g (fmt_bytes (Some v)))
              groups))
  end;
  Buffer.contents buf

let poll ~host ~port =
  let status, body = http_get ~host ~port ~path:"/metrics" in
  if not (String.length status >= 12 && String.sub status 9 3 = "200") then
    failwith ("scrape failed: " ^ status);
  render ~host ~port (Fw_obs.Export.parse_prometheus body)

let run host port interval once =
  if once then
    match poll ~host ~port with
    | s ->
        print_string s;
        0
    | exception e ->
        Printf.eprintf "fwtop: %s\n" (Printexc.to_string e);
        1
  else begin
    let rec loop failures =
      let failures =
        match poll ~host ~port with
        | s ->
            (* clear screen + home, then the fresh frame *)
            print_string "\027[2J\027[H";
            print_string s;
            flush stdout;
            0
        | exception e ->
            if failures >= 5 then begin
              Printf.eprintf "fwtop: giving up: %s\n" (Printexc.to_string e);
              exit 1
            end;
            Printf.eprintf "fwtop: endpoint not answering, retrying...\n%!";
            failures + 1
      in
      Unix.sleepf interval;
      loop failures
    in
    loop 0
  end

let () =
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST" ~doc:"Scrape endpoint host.")
  in
  let port =
    Arg.(required & opt (some int) None
         & info [ "p"; "port" ] ~docv:"PORT"
             ~doc:"Port of a running $(b,fwopt run --serve).")
  in
  let interval =
    Arg.(value & opt float 1.0
         & info [ "interval"; "i" ] ~docv:"SECONDS"
             ~doc:"Refresh period.")
  in
  let once =
    Arg.(value & flag
         & info [ "once" ]
             ~doc:"Print a single frame and exit (no screen clearing) — \
                   scriptable, used by the CI smoke.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "fwtop" ~version:"1.0.0"
         ~doc:"Live terminal dashboard for a served factor-windows run.")
      Term.(const run $ host $ port $ interval $ once)
  in
  exit (Cmd.eval' cmd)
