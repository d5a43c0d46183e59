(* Span recorder for the traced run.

   A span is one call into the program, timed from the benchmark's side:
   name ("layer.call"), start and end, the span that caused it, and the
   id of the operation (batch or request) it belongs to.  Spans are kept
   in memory and written out when the run ends.  The query server's
   handler runs on the HTTP accept domain, so recording takes a lock;
   the current span is tracked per domain, and a handler names its
   client-side parent explicitly. *)

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root *)
  op : int;
  start_ns : int;
  mutable end_ns : int;
}

type t = { lock : Mutex.t; mutable spans : span array; mutable n : int }

let create () = { lock = Mutex.create (); spans = [||]; n = 0 }

let current = Domain.DLS.new_key (fun () -> -1)

let dummy = { id = -1; name = ""; parent = -1; op = 0; start_ns = 0; end_ns = 0 }

let push t ~name ~parent ~op ~start_ns ~end_ns =
  Mutex.lock t.lock;
  if t.n = Array.length t.spans then begin
    let a = Array.make (max 1024 (2 * t.n)) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  let s = { id = t.n; name; parent; op; start_ns; end_ns } in
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  Mutex.unlock t.lock;
  s

let enter t ?parent ~op name =
  let parent =
    match parent with Some p -> p | None -> Domain.DLS.get current
  in
  let s = push t ~name ~parent ~op ~start_ns:(Mono.now_ns ()) ~end_ns:0 in
  Domain.DLS.set current s.id;
  s

let leave s =
  s.end_ns <- Mono.now_ns ();
  Domain.DLS.set current s.parent

(* [with_span tr name ~op f]: when tracing, time [f] as a span under the
   domain's current span (or [parent]); otherwise just run it. *)
let with_span tr ?parent ~op name f =
  match tr with
  | None -> f ()
  | Some t ->
      let s = enter t ?parent ~op name in
      Fun.protect ~finally:(fun () -> leave s) f

let current_id () = Domain.DLS.get current
let spans t = Array.sub t.spans 0 t.n
let length t = t.n

(* ---- analysis ---- *)

let duration s = max 0 (s.end_ns - s.start_ns)

(* Self time of every span: its duration minus the part of its interval
   that its children cover (child intervals are clipped to the parent
   and merged, so overlapping or straddling children count once). *)
let self_times (spans : span array) =
  let n = Array.length spans in
  let index = Hashtbl.create (max 16 n) in
  Array.iteri (fun i s -> Hashtbl.replace index s.id i) spans;
  let children = Array.make n [] in
  Array.iter
    (fun s ->
      match Hashtbl.find_opt index s.parent with
      | Some p -> children.(p) <- s :: children.(p)
      | None -> ())
    spans;
  Array.mapi
    (fun i p ->
      let clipped =
        List.filter_map
          (fun c ->
            let lo = max c.start_ns p.start_ns and hi = min c.end_ns p.end_ns in
            if hi > lo then Some (lo, hi) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (lo, hi) ->
            let lo = max lo reach in
            if hi > lo then (acc + (hi - lo), hi) else (acc, reach))
          (0, min_int) clipped
      in
      max 0 (duration p - covered))
    spans

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

type layer_row = { layer : string; calls : int; incl_ns : int; self_ns : int }

(* Per-layer totals, largest self time first. *)
let layers spans =
  let self = self_times spans in
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let l = layer_of s.name in
      let calls, incl, self_ns =
        Option.value (Hashtbl.find_opt tbl l) ~default:(0, 0, 0)
      in
      Hashtbl.replace tbl l (calls + 1, incl + duration s, self_ns + self.(i)))
    spans;
  Hashtbl.fold
    (fun layer (calls, incl_ns, self_ns) acc ->
      { layer; calls; incl_ns; self_ns } :: acc)
    tbl []
  |> List.sort (fun a b -> compare (b.self_ns, a.layer) (a.self_ns, b.layer))

let layer_table rows =
  let total = List.fold_left (fun acc r -> acc + r.self_ns) 0 rows in
  let buf = Buffer.create 512 in
  Printf.bprintf buf "%-10s %10s %12s %12s %7s\n" "layer" "calls" "incl_ms"
    "self_ms" "self%";
  List.iter
    (fun r ->
      Printf.bprintf buf "%-10s %10d %12.3f %12.3f %6.1f%%\n" r.layer r.calls
        (float_of_int r.incl_ns /. 1e6)
        (float_of_int r.self_ns /. 1e6)
        (if total = 0 then 0.0
         else 100.0 *. float_of_int r.self_ns /. float_of_int total))
    rows;
  Buffer.contents buf

let dump oc spans =
  let self = self_times spans in
  output_string oc "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n";
  Array.iteri
    (fun i s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\t%d\n" s.id s.parent s.op s.name
        s.start_ns s.end_ns self.(i))
    spans
