(** Shared HTTP/1.1 server core: the dependency-free plumbing behind
    {!Scrape} and the query server ([Fw_serve.Http]), hardened once and
    reused — blocking loopback TCP, one background domain answering
    requests sequentially ([Connection: close], no keep-alive).

    The core owns everything transport-shaped: bounded head reading
    (CRLF and bare-LF both terminate), a bounded [Content-Length] body
    reader (requests claiming more than [max_body] bytes are refused
    with 413 {e before} reading them; a body cut short by disconnect is
    answered 400, never passed to the handler), a per-connection
    deadline (a request, head and body, not complete 5 s after accept
    is answered 408, so a client trickling bytes cannot hold the accept
    domain), SIGPIPE suppression, per-request catch-all 500, and
    idempotent shutdown.  Handlers receive a parsed {!request} and
    return a {!response}; they run in the accept domain, so a server
    whose handler mutates shared state needs no further locking as long
    as that state is only touched through handlers. *)

type request = {
  meth : string;  (** request method, uppercased ([GET], [POST], ...) *)
  path : string;  (** path with the query string stripped *)
  query : (string * string) list;
      (** decoded query-string pairs, in order of appearance *)
  body : string;  (** request body ([""] when none was sent) *)
}

type response = { status : string; content_type : string; body : string }

val ok : ?content_type:string -> string -> response
(** [200 OK]; [content_type] defaults to [text/plain]. *)

val not_found : string -> response
val bad_request : string -> response

val response :
  status:string -> ?content_type:string -> string -> response
(** Arbitrary status line tail, e.g. ["429 Too Many Requests"]. *)

type t

val start :
  ?host:string ->
  ?max_body:int ->
  ?on_request:(unit -> unit) ->
  port:int ->
  (request -> response) ->
  t
(** Bind [host] (default ["127.0.0.1"]) : [port] ([0] picks an
    ephemeral port — read it back with {!port}), spawn the accept
    domain and return immediately.  [max_body] (default 4 MiB) bounds
    the accepted request body; [on_request] runs once per parsed
    request before the handler (metrics hook).  Raises
    [Unix.Unix_error] when the bind fails. *)

val port : t -> int

val stop : t -> unit
(** Close the listen socket and join the server domain.  Idempotent.
    In-flight requests finish (bounded by the 5 s per-connection
    deadline). *)
