module Row = Fw_engine.Row

type discrepancy = { path : string; detail : string }

let max_diff_lines = 6

let describe_diff reference actual =
  let pairs = Row.diff reference actual in
  let shown = List.filteri (fun i _ -> i < max_diff_lines) pairs in
  let line (a, b) =
    match (a, b) with
    | Some r, None -> Format.asprintf "missing   %a" Row.pp r
    | None, Some r -> Format.asprintf "spurious  %a" Row.pp r
    | Some r, Some r' -> Format.asprintf "value     %a vs %a" Row.pp r Row.pp r'
    | None, None -> "?"
  in
  let suffix =
    if List.length pairs > max_diff_lines then
      Printf.sprintf " (+%d more)" (List.length pairs - max_diff_lines)
    else ""
  in
  Printf.sprintf "%d/%d rows differ: %s%s" (List.length pairs)
    (List.length reference)
    (String.concat " | " (List.map line shown))
    suffix

let check ?(paths = Paths.all) sc =
  match Paths.rows Paths.Reference sc with
  | Error e ->
      [ { path = Paths.name Paths.Reference; detail = "crashed: " ^ e } ]
  | Ok reference ->
      List.filter_map
        (fun path ->
          match path with
          | Paths.Reference -> None
          | _ when not (Paths.applicable path sc) -> None
          | _ -> (
              match Paths.rows path sc with
              | Error e ->
                  Some { path = Paths.name path; detail = "crashed: " ^ e }
              | Ok rows ->
                  if Row.equal_sets reference rows then None
                  else
                    Some
                      {
                        path = Paths.name path;
                        detail = describe_diff reference rows;
                      }))
        paths
