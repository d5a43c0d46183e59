(** CSV interchange for events and result rows.

    Events: [time,key,value] per line; a header line
    ([time,key,value], case-insensitive) is skipped if present.  Keys
    may not contain commas or newlines (no quoting — diagnostics point
    at the offending line instead). *)

val parse_events : string -> (Event.t list, string) result
(** Parse a whole document; the error message carries the 1-based line
    number.  Events are returned in file order: {!Event.sort} them, or
    put a {!Reorder} stage in front of the sink. *)

val load_events : string -> (Event.t list, string) result
(** Read a file ([-] for standard input) and parse it. *)

val events_to_csv : Event.t list -> string
(** With header; inverse of {!parse_events}. *)

val rows_header : string
(** [range,slide,start,end,key,value] and its newline. *)

val add_row : Buffer.t -> Row.t -> unit
(** Append one result row as a CSV line, newline included.  A hop row
    (time or count) writes its range and slide; a session row [S<gap>]
    writes [gap] as the range and [0] as the slide — no hop window has
    slide 0, so the row stays unambiguous.  The value is printed as
    [Printf]'s [%g] prints it, byte for byte. *)

val rows_to_csv : Row.t list -> string
(** {!rows_header}, then one {!add_row} line per result row. *)
