(* ddmin-style list minimization (Zeller & Hildebrandt): first try the
   halves (plain bisection), then complements of ever-finer chunks. *)
let shrink_list still_fails xs =
  let remove_chunk xs ~start ~len =
    List.filteri (fun i _ -> i < start || i >= start + len) xs
  in
  let rec go xs n =
    let len = List.length xs in
    if len <= 1 || n > len then xs
    else
      let chunk = (len + n - 1) / n in
      let rec try_chunks start =
        if start >= len then None
        else
          let candidate = remove_chunk xs ~start ~len:chunk in
          if List.length candidate < len && still_fails candidate then
            Some candidate
          else try_chunks (start + chunk)
      in
      match try_chunks 0 with
      | Some smaller -> go smaller (max 2 (n - 1))
      | None -> if chunk <= 1 then xs else go xs (min len (2 * n))
  in
  go xs 2

let events still_fails evs = shrink_list still_fails evs

(* Greedy removal to a fixpoint: drop any single window whose removal
   keeps the failure alive.  Window sets are small (the generators cap
   them), so quadratic passes are fine. *)
let windows still_fails ws =
  let rec go ws =
    let try_without w =
      let candidate =
        List.filter (fun x -> not (Fw_window.Window.equal x w)) ws
      in
      if candidate <> [] && still_fails candidate then Some candidate else None
    in
    match List.find_map try_without ws with
    | Some smaller -> go smaller
    | None -> ws
  in
  go ws

(* Family degradation to a fixpoint: a failing count or session window
   often fails for family-independent reasons, so try each one's
   time-domain shadow (count hop -> the same-geometry time hop, session
   -> a tumbling window of the gap).  A shrunk repro that still carries
   a count or session window then implicates the family itself. *)
let families still_fails ws =
  let module Window = Fw_window.Window in
  let shadow w =
    match Window.hop_domain w with
    | Some Window.Time -> None
    | Some Window.Count ->
        Some (Window.make ~range:(Window.range w) ~slide:(Window.slide w))
    | None -> Some (Window.tumbling (Window.gap w))
  in
  let rec go ws =
    let try_at i w =
      match shadow w with
      | None -> None
      | Some w' ->
          let candidate =
            Window.dedup (List.mapi (fun j x -> if j = i then w' else x) ws)
          in
          if still_fails candidate then Some candidate else None
    in
    match List.find_map Fun.id (List.mapi try_at ws) with
    | Some degraded -> go degraded
    | None -> ws
  in
  go ws

(* Smallest batch size that keeps the failure alive, scanning upward
   from 1 (batch-of-1 is the per-event degenerate case, so a failure
   that survives it localizes away from the batching itself). *)
let batch still_fails n =
  if n <= 1 then n
  else
    let rec from k = if k >= n then n else if still_fails k then k else from (k + 1) in
    from 1

(* Smallest budget that keeps the failure alive, scanning upward from 0
   in doubling steps (budgets span bytes to tens of KiB, so a linear
   scan would be absurd).  Reaching 0 — everything evicted, every touch
   a fault — keeps the whole out-of-core machinery in the shrunk repro
   while removing the clock's partial-residency nondeterminism from the
   picture. *)
let budget still_fails n =
  if n <= 0 then n
  else if still_fails 0 then 0
  else
    let rec from k =
      if k >= n then n else if still_fails k then k else from (2 * k)
    in
    from 1

let scenario still_fails (sc : Scenario.t) =
  let with_events sc evs = { sc with Scenario.events = evs } in
  let with_windows sc ws = { sc with Scenario.windows = ws } in
  let with_batch sc n = { sc with Scenario.batch = n } in
  let with_budget sc n = { sc with Scenario.budget = n } in
  (* events first (usually the big list), then windows — removal, then
     family degradation of the survivors — then a second event pass (a
     smaller window set often unlocks further stream reduction) and
     finally the batch size and memory budget. *)
  let sc =
    with_events sc
      (events (fun evs -> still_fails (with_events sc evs)) sc.Scenario.events)
  in
  let sc =
    with_windows sc
      (windows
         (fun ws -> still_fails (with_windows sc ws))
         sc.Scenario.windows)
  in
  let sc =
    with_windows sc
      (families
         (fun ws -> still_fails (with_windows sc ws))
         sc.Scenario.windows)
  in
  let sc =
    with_events sc
      (events (fun evs -> still_fails (with_events sc evs)) sc.Scenario.events)
  in
  let sc =
    with_batch sc
      (batch (fun n -> still_fails (with_batch sc n)) sc.Scenario.batch)
  in
  with_budget sc
    (budget (fun n -> still_fails (with_budget sc n)) sc.Scenario.budget)
