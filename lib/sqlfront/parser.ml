module Duration = Fw_util.Duration

exception Error of { message : string; pos : Token.pos }

type state = { tokens : Token.located array; mutable index : int }

let current st = st.tokens.(st.index)

let error st fmt =
  Format.kasprintf
    (fun message -> raise (Error { message; pos = (current st).Token.pos }))
    fmt

let advance st =
  if st.index < Array.length st.tokens - 1 then st.index <- st.index + 1

let peek_token st = (current st).Token.token

let is_keyword st kw =
  match peek_token st with
  | Token.Ident s -> String.lowercase_ascii s = String.lowercase_ascii kw
  | _ -> false

let expect_keyword st kw =
  if is_keyword st kw then advance st
  else error st "expected %s, found %a" (String.uppercase_ascii kw) Token.pp
      (peek_token st)

let expect st token =
  if Token.equal (peek_token st) token then advance st
  else error st "expected %a, found %a" Token.pp token Token.pp (peek_token st)

let eat_ident st =
  match peek_token st with
  | Token.Ident s ->
      advance st;
      s
  | t -> error st "expected an identifier, found %a" Token.pp t

(* A window parameter: a positive integer — a hop no larger than its
   window's [size] — whose tick count, for a time window, fits a native
   int, so {!Ast.window_of_def} can always build the window from the
   AST.  Errors point at the literal. *)
let eat_param ?unit_ ?size st =
  let n =
    match peek_token st with
    | Token.Int n -> n
    | t -> error st "expected an integer, found %a" Token.pp t
  in
  if n <= 0 then error st "window parameters must be positive, found %d" n;
  (match size with
  | Some size when n > size ->
      error st "the hop %d exceeds the window size %d" n size
  | _ -> ());
  (match unit_ with
  | Some u -> (
      match Duration.to_ticks (Duration.make u n) with
      | _ -> ()
      | exception Fw_util.Arith.Overflow ->
          error st "%d %s overflows the tick range" n
            (Duration.unit_to_string u))
  | None -> ());
  advance st;
  n

let peek_ahead st k =
  let i = min (st.index + k) (Array.length st.tokens - 1) in
  st.tokens.(i).Token.token

let parse_alias st =
  if is_keyword st "as" then begin
    advance st;
    Some (eat_ident st)
  end
  else None

let parse_unit st =
  let name = eat_ident st in
  match Duration.unit_of_string name with
  | Some u -> u
  | None -> error st "unknown time unit %s" name

(* TUMBLINGWINDOW(unit, n) / HOPPINGWINDOW(unit, n, hop) /
   COUNTWINDOW(n[, hop]) / SESSIONWINDOW(unit, gap) *)
let parse_window_def st =
  if is_keyword st "countwindow" then begin
    advance st;
    expect st Token.Lparen;
    let size = eat_param st in
    let hop =
      if Token.equal (peek_token st) Token.Comma then begin
        advance st;
        eat_param ~size st
      end
      else size
    in
    expect st Token.Rparen;
    Ast.Count_rows { size; hop }
  end
  else if is_keyword st "sessionwindow" then begin
    advance st;
    expect st Token.Lparen;
    let unit_ = parse_unit st in
    expect st Token.Comma;
    let gap = eat_param ~unit_ st in
    expect st Token.Rparen;
    Ast.Session { unit_; gap }
  end
  else if is_keyword st "tumblingwindow" then begin
    advance st;
    expect st Token.Lparen;
    let unit_ = parse_unit st in
    expect st Token.Comma;
    let size = eat_param ~unit_ st in
    expect st Token.Rparen;
    Ast.Tumbling { unit_; size }
  end
  else if is_keyword st "hoppingwindow" then begin
    advance st;
    expect st Token.Lparen;
    let unit_ = parse_unit st in
    expect st Token.Comma;
    let size = eat_param ~unit_ st in
    expect st Token.Comma;
    let hop = eat_param ~unit_ ~size st in
    expect st Token.Rparen;
    Ast.Hopping { unit_; size; hop }
  end
  else
    error st
      "expected TUMBLINGWINDOW, HOPPINGWINDOW, COUNTWINDOW or \
       SESSIONWINDOW, found %a"
      Token.pp (peek_token st)

(* WINDOW('label', <def>) or WINDOW(<def>) *)
let parse_window_entry st =
  expect_keyword st "window";
  expect st Token.Lparen;
  let label =
    match peek_token st with
    | Token.String s ->
        advance st;
        expect st Token.Comma;
        Some s
    | _ -> None
  in
  let def = parse_window_def st in
  expect st Token.Rparen;
  { Ast.label; def }

let is_window_def_start st =
  is_keyword st "tumblingwindow"
  || is_keyword st "hoppingwindow"
  || is_keyword st "countwindow"
  || is_keyword st "sessionwindow"

let parse_select_item st =
  match peek_token st with
  | Token.Ident name
    when Fw_agg.Aggregate.of_string name <> None
         && Token.equal (peek_ahead st 1) Token.Lparen ->
      let func = Option.get (Fw_agg.Aggregate.of_string name) in
      advance st;
      expect st Token.Lparen;
      let column = eat_ident st in
      expect st Token.Rparen;
      let alias = parse_alias st in
      Ast.Agg { func; column; alias }
  | Token.Ident s
    when String.lowercase_ascii s = "system"
         && Token.equal (peek_ahead st 1) Token.Dot ->
      (* System.Window().Id *)
      advance st;
      expect st Token.Dot;
      expect_keyword st "window";
      expect st Token.Lparen;
      expect st Token.Rparen;
      expect st Token.Dot;
      expect_keyword st "id";
      let alias = parse_alias st in
      Ast.Window_id alias
  | Token.Ident _ ->
      let first = eat_ident st in
      let rec dotted acc =
        if Token.equal (peek_token st) Token.Dot then begin
          advance st;
          dotted (eat_ident st :: acc)
        end
        else List.rev acc
      in
      Ast.Column (dotted [ first ])
  | t -> error st "expected a select item, found %a" Token.pp t

let parse_operand st =
  match peek_token st with
  | Token.Int n ->
      advance st;
      Ast.Number (float_of_int n)
  | Token.Float f ->
      advance st;
      Ast.Number f
  | Token.String str ->
      advance st;
      Ast.Str str
  | Token.Ident name
    when not
           (List.mem (String.lowercase_ascii name)
              [ "and"; "or"; "not"; "group"; "where" ]) ->
      advance st;
      Ast.Col name
  | t -> error st "expected a column, number or string, found %a" Token.pp t

let parse_comparison_op st =
  match peek_token st with
  | Token.Op "=" ->
      advance st;
      Ast.Eq
  | Token.Op "<>" ->
      advance st;
      Ast.Neq
  | Token.Op "<" ->
      advance st;
      Ast.Lt
  | Token.Op "<=" ->
      advance st;
      Ast.Le
  | Token.Op ">" ->
      advance st;
      Ast.Gt
  | Token.Op ">=" ->
      advance st;
      Ast.Ge
  | t -> error st "expected a comparison operator, found %a" Token.pp t

(* Predicate grammar: OR-terms of AND-terms of (possibly negated)
   primaries; parentheses group. *)
let rec parse_or_pred st =
  let left = parse_and_pred st in
  if is_keyword st "or" then begin
    advance st;
    Ast.Or (left, parse_or_pred st)
  end
  else left

and parse_and_pred st =
  let left = parse_not_pred st in
  if is_keyword st "and" then begin
    advance st;
    Ast.And (left, parse_and_pred st)
  end
  else left

and parse_not_pred st =
  if is_keyword st "not" then begin
    advance st;
    Ast.Not (parse_not_pred st)
  end
  else parse_primary_pred st

and parse_primary_pred st =
  if Token.equal (peek_token st) Token.Lparen then begin
    advance st;
    let p = parse_or_pred st in
    expect st Token.Rparen;
    p
  end
  else
    let left = parse_operand st in
    let op = parse_comparison_op st in
    let right = parse_operand st in
    Ast.Compare { left; op; right }

let rec parse_comma_list st parse_one =
  let first = parse_one st in
  if Token.equal (peek_token st) Token.Comma then begin
    advance st;
    first :: parse_comma_list st parse_one
  end
  else [ first ]

let parse_group_by st =
  let keys = ref [] and windows = ref [] in
  let parse_group_item st =
    if is_keyword st "windows" then begin
      advance st;
      expect st Token.Lparen;
      let entries = parse_comma_list st parse_window_entry in
      expect st Token.Rparen;
      windows := !windows @ entries
    end
    else if is_window_def_start st then
      let def = parse_window_def st in
      windows := !windows @ [ { Ast.label = None; def } ]
    else keys := !keys @ [ eat_ident st ]
  in
  let rec go () =
    parse_group_item st;
    if Token.equal (peek_token st) Token.Comma then begin
      advance st;
      go ()
    end
  in
  go ();
  (!keys, !windows)

let parse_query st =
  expect_keyword st "select";
  let select = parse_comma_list st parse_select_item in
  expect_keyword st "from";
  let from = eat_ident st in
  let timestamp_by =
    if is_keyword st "timestamp" then begin
      advance st;
      expect_keyword st "by";
      Some (eat_ident st)
    end
    else None
  in
  let where =
    if is_keyword st "where" then begin
      advance st;
      Some (parse_or_pred st)
    end
    else None
  in
  let group_keys, windows =
    if is_keyword st "group" then begin
      advance st;
      expect_keyword st "by";
      parse_group_by st
    end
    else ([], [])
  in
  (match peek_token st with
  | Token.Eof -> ()
  | t -> error st "unexpected %a after the query" Token.pp t);
  { Ast.select; from; timestamp_by; where; group_keys; windows }

let parse input =
  let tokens = Array.of_list (Lexer.tokenize input) in
  parse_query { tokens; index = 0 }

let parse_result input =
  match parse input with
  | ast -> Ok ast
  | exception Error { message; pos } ->
      Error (Format.asprintf "syntax error at %a: %s" Token.pp_pos pos message)
  | exception Lexer.Error { message; pos } ->
      Error
        (Format.asprintf "lexical error at %a: %s" Token.pp_pos pos message)
