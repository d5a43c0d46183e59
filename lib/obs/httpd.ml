(* The HTTP/1.1 plumbing shared by the metrics scrape endpoint
   ({!Scrape}) and the query server ([Fw_serve.Http]): blocking
   loopback TCP, one background domain accepting and answering
   requests sequentially.  Both workloads are low-rate single-reader
   protocols — request pipelining, keep-alive and TLS would all be
   dead weight here, and keeping the tree dependency-free matters
   more.

   Concurrency argument: the accept domain runs every handler, so
   state mutated only through handlers needs no locking.  The scrape
   handler additionally reads metric cells the engine domains write —
   single-word reads of monotone values, the OCaml memory model
   returns some written value, never a torn one (see DESIGN.md §14). *)

type request = {
  meth : string;
  path : string;
  query : (string * string) list;
  body : string;
}

type response = { status : string; content_type : string; body : string }

let response ~status ?(content_type = "text/plain") body =
  { status; content_type; body }

let ok ?content_type body = response ~status:"200 OK" ?content_type body
let not_found body = response ~status:"404 Not Found" body
let bad_request body = response ~status:"400 Bad Request" body

type t = {
  sock : Unix.file_descr;
  port : int;
  max_body : int;
  stopping : bool Atomic.t;
  mutable domain : unit Domain.t option;
}

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      status content_type (String.length body)
  in
  let msg = head ^ body in
  let n = String.length msg in
  let buf = Bytes.unsafe_of_string msg in
  let rec write_all off =
    if off < n then
      match Unix.write fd buf off (n - off) with
      | 0 -> ()
      | k -> write_all (off + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  write_all 0

(* Index just past the blank line ending the request head, or None
   while incomplete.  Both CRLF and bare-LF line endings terminate the
   head, so a casual [printf '...\n\n' | nc] is answered immediately
   instead of riding out the connection deadline. *)
let head_end s =
  let n = String.length s in
  let rec go i =
    if i + 2 > n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i + 2)
    else if
      i + 4 <= n
      && s.[i] = '\r'
      && s.[i + 1] = '\n'
      && s.[i + 2] = '\r'
      && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

(* Every connection gets [deadline_s] seconds, from accept, to deliver
   its whole request, head and body.  A per-read timeout alone would
   let a client trickling a byte every few seconds hold the single
   accept domain indefinitely; instead each read re-arms the socket's
   receive timeout with the time left, and a request still incomplete
   at the deadline is answered 408. *)
let deadline_s = 5.0

exception Expired

(* One read of at most [len] bytes into [chunk]; 0 on EOF or a socket
   error.  A timeout of 0 would block forever, so under a millisecond
   left counts as expired. *)
let read_until ~deadline fd chunk len =
  let left = deadline -. Unix.gettimeofday () in
  if left < 0.001 then raise Expired;
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO left
   with Unix.Unix_error _ -> ());
  match Unix.read fd chunk 0 len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      raise Expired
  | exception Unix.Unix_error _ -> 0

(* Read until the head is complete, bounded so a misbehaving client
   cannot grow the buffer; returns (head, spill) where [spill] is
   whatever body prefix arrived in the same reads.  EOF ends the head —
   the caller proceeds with whatever arrived. *)
let read_head ~deadline fd =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 512 in
  let rec go () =
    let s = Buffer.contents buf in
    match head_end s with
    | Some e -> (String.sub s 0 e, String.sub s e (String.length s - e))
    | None ->
        if Buffer.length buf > 8192 then (s, "")
        else
          let n = read_until ~deadline fd chunk 512 in
          if n = 0 then (s, "")
          else begin
            Buffer.add_subbytes buf chunk 0 n;
            go ()
          end
  in
  go ()

(* Read exactly [need] more body bytes after [spill]; None on a torn
   body (disconnect before the advertised Content-Length arrived). *)
let read_body ~deadline fd ~spill ~need =
  if String.length spill >= need then Some (String.sub spill 0 need)
  else begin
    let buf = Buffer.create need in
    Buffer.add_string buf spill;
    let chunk = Bytes.create 4096 in
    let rec go () =
      if Buffer.length buf >= need then Some (Buffer.contents buf)
      else
        let n =
          read_until ~deadline fd chunk (min 4096 (need - Buffer.length buf))
        in
        if n = 0 then None
        else begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
    in
    go ()
  end

let percent_decode s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < n then
      match s.[i] with
      | '%' when i + 2 < n -> (
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some h, Some l ->
              Buffer.add_char buf (Char.chr ((h * 16) + l));
              go (i + 3)
          | _ ->
              Buffer.add_char buf '%';
              go (i + 1))
      | '+' ->
          Buffer.add_char buf ' ';
          go (i + 1)
      | c ->
          Buffer.add_char buf c;
          go (i + 1)
  in
  go 0;
  Buffer.contents buf

let parse_query qs =
  if qs = "" then []
  else
    List.filter_map
      (fun pair ->
        if pair = "" then None
        else
          match String.index_opt pair '=' with
          | None -> Some (percent_decode pair, "")
          | Some i ->
              Some
                ( percent_decode (String.sub pair 0 i),
                  percent_decode
                    (String.sub pair (i + 1) (String.length pair - i - 1)) ))
      (String.split_on_char '&' qs)

(* First head line → (METH, path, query pairs); None on garbage. *)
let request_line head =
  match String.index_opt head '\n' with
  | None -> None
  | Some eol -> (
      let line = String.trim (String.sub head 0 eol) in
      match String.split_on_char ' ' line with
      | meth :: target :: _ when meth <> "" -> (
          let meth = String.uppercase_ascii meth in
          match String.index_opt target '?' with
          | Some q ->
              Some
                ( meth,
                  String.sub target 0 q,
                  parse_query
                    (String.sub target (q + 1) (String.length target - q - 1))
                )
          | None -> Some (meth, target, []))
      | _ -> None)

(* Case-insensitive Content-Length from the raw head; None when absent
   or unparseable. *)
let content_length head =
  let lower = String.lowercase_ascii head in
  let key = "content-length:" in
  let rec find from =
    match String.index_from_opt lower from '\n' with
    | None -> None
    | Some eol ->
        let line_start = from in
        let line =
          String.trim (String.sub lower line_start (eol - line_start))
        in
        if
          String.length line >= String.length key
          && String.sub line 0 (String.length key) = key
        then
          let v =
            String.trim
              (String.sub line (String.length key)
                 (String.length line - String.length key))
          in
          int_of_string_opt v
        else find (eol + 1)
  in
  (* skip the request line itself *)
  match String.index_opt lower '\n' with
  | None -> None
  | Some eol -> find (eol + 1)

let handle t ~deadline ~on_request ~handler fd =
  let head, spill = read_head ~deadline fd in
  on_request ();
  match request_line head with
  | None -> write_response fd (bad_request "bad request\n")
  | Some (meth, path, query) -> (
      match content_length head with
      | Some need when need < 0 ->
          write_response fd (bad_request "bad content-length\n")
      | Some need when need > t.max_body ->
          (* refuse before reading: a client advertising an oversized
             body must not make the server buffer it *)
          write_response fd
            (response ~status:"413 Content Too Large" "body too large\n")
      | Some need -> (
          match read_body ~deadline fd ~spill ~need with
          | None ->
              write_response fd
                (bad_request "truncated body (connection cut short)\n")
          | Some body ->
              write_response fd (handler { meth; path; query; body }))
      | None -> write_response fd (handler { meth; path; query; body = "" }))

let serve t ~on_request ~handler =
  let rec loop () =
    match Unix.accept t.sock with
    | client, _ ->
        let deadline = Unix.gettimeofday () +. deadline_s in
        (try handle t ~deadline ~on_request ~handler client with
        | Expired ->
            (try
               write_response client
                 (response ~status:"408 Request Timeout"
                    "request not complete within the deadline\n")
             with Unix.Unix_error _ -> ())
        | Unix.Unix_error _ | Sys_error _ -> ()
        | _ ->
            (* any other escaped exception (a broken handler, a
               registry conflict) must not take the endpoint down:
               answer 500 and keep accepting *)
            (try
               write_response client
                 (response ~status:"500 Internal Server Error"
                    "internal error\n")
             with _ -> ()));
        (try Unix.close client with Unix.Unix_error _ -> ());
        if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if not (Atomic.get t.stopping) then loop ()
    | exception Unix.Unix_error _ ->
        (* the listen socket was closed under us: stop requested *)
        ()
  in
  loop ()

let start ?(host = "127.0.0.1") ?(max_body = 4 * 1024 * 1024)
    ?(on_request = fun () -> ()) ~port handler =
  (* A client that disconnects mid-response (curl timeout, fwtop
     killed) turns our next write into a SIGPIPE, whose default
     disposition kills the whole process; ignore it so the write
     surfaces as EPIPE, which [write_response] already swallows. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let addr = Unix.inet_addr_of_string host in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock (Unix.ADDR_INET (addr, port));
     Unix.listen sock 16
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  let t =
    { sock; port; max_body; stopping = Atomic.make false; domain = None }
  in
  t.domain <- Some (Domain.spawn (fun () -> serve t ~on_request ~handler));
  t

let port t = t.port

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* close the listen socket to kick accept(2); a connect straggler
       racing the close is answered or dropped, both fine *)
    (try Unix.shutdown t.sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    (try Unix.close t.sock with Unix.Unix_error _ -> ());
    match t.domain with
    | Some d ->
        Domain.join d;
        t.domain <- None
    | None -> ()
  end
