let header = "time,key,value"

let parse_line lineno line =
  match String.split_on_char ',' line with
  | [ time; key; value ] -> (
      let time = String.trim time and value = String.trim value in
      match (int_of_string_opt time, float_of_string_opt value) with
      | Some time, Some value ->
          if time < 0 then
            Error (Printf.sprintf "line %d: negative time %d" lineno time)
          else Ok (Event.make ~time ~key:(String.trim key) ~value)
      | None, _ -> Error (Printf.sprintf "line %d: bad time %S" lineno time)
      | _, None -> Error (Printf.sprintf "line %d: bad value %S" lineno value)
      )
  | _ ->
      Error
        (Printf.sprintf "line %d: expected time,key,value — got %S" lineno
           line)

let parse_events doc =
  let lines = String.split_on_char '\n' doc in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" then go (lineno + 1) acc rest
        else if lineno = 1 && String.lowercase_ascii trimmed = header then
          go (lineno + 1) acc rest
        else (
          match parse_line lineno trimmed with
          | Ok e -> go (lineno + 1) (e :: acc) rest
          | Error _ as e -> e)
  in
  go 1 [] lines

let load_events path =
  match
    if path = "-" then In_channel.input_all stdin
    else In_channel.with_open_text path In_channel.input_all
  with
  | doc -> parse_events doc
  | exception Sys_error msg -> Error msg

let events_to_csv events =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,%g\n" e.Event.time e.Event.key e.Event.value))
    events;
  Buffer.contents buf

(* The primitive Printf's [%g] ends in, called with the format string
   Printf builds for it: the same bytes without the format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

let rows_header = "range,slide,start,end,key,value\n"

let add_row buf (r : Row.t) =
  let range, slide =
    match r.Row.window with
    | Fw_window.Window.Hop { range; slide; _ } -> (range, slide)
    | Fw_window.Window.Session { gap } -> (gap, 0)
  in
  Buffer.add_string buf (string_of_int range);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int slide);
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int (Fw_window.Interval.lo r.Row.interval));
  Buffer.add_char buf ',';
  Buffer.add_string buf (string_of_int (Fw_window.Interval.hi r.Row.interval));
  Buffer.add_char buf ',';
  Buffer.add_string buf r.Row.key;
  Buffer.add_char buf ',';
  Buffer.add_string buf (format_float "%.6g" r.Row.value);
  Buffer.add_char buf '\n'

let rows_to_csv rows =
  let buf = Buffer.create 256 in
  Buffer.add_string buf rows_header;
  List.iter (add_row buf) rows;
  Buffer.contents buf
