exception Error of { message : string; pos : Token.pos }

type state = {
  input : string;
  mutable offset : int;
  mutable line : int;
  mutable col : int;
}

let pos st = { Token.line = st.line; col = st.col }

let error st message = raise (Error { message; pos = pos st })

(* An integer literal that does not fit a native int is a lexical
   error at the literal, not a [Failure] from [int_of_string]. *)
let int_literal ~pos text =
  match int_of_string_opt text with
  | Some n -> Token.Int n
  | None ->
      let message = "integer literal " ^ text ^ " is out of range" in
      raise (Error { message; pos })

let peek st =
  if st.offset < String.length st.input then Some st.input.[st.offset]
  else None

let peek2 st =
  if st.offset + 1 < String.length st.input then Some st.input.[st.offset + 1]
  else None

let advance st =
  (match peek st with
  | Some '\n' ->
      st.line <- st.line + 1;
      st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.offset <- st.offset + 1

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let take_while st pred =
  let start = st.offset in
  let rec go () =
    match peek st with
    | Some c when pred c ->
        advance st;
        go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub st.input start (st.offset - start)

let skip_line_comment st =
  let rec go () =
    match peek st with
    | Some '\n' | None -> ()
    | Some _ ->
        advance st;
        go ()
  in
  go ()

let skip_block_comment st =
  let start_pos = pos st in
  let rec go () =
    match (peek st, peek2 st) with
    | Some '*', Some '/' ->
        advance st;
        advance st
    | Some _, _ ->
        advance st;
        go ()
    | None, _ ->
        raise
          (Error { message = "unterminated block comment"; pos = start_pos })
  in
  go ()

let read_string st =
  let start_pos = pos st in
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match (peek st, peek2 st) with
    | Some '\'', Some '\'' ->
        Buffer.add_char buf '\'';
        advance st;
        advance st;
        go ()
    | Some '\'', _ -> advance st
    | Some c, _ ->
        Buffer.add_char buf c;
        advance st;
        go ()
    | None, _ ->
        raise (Error { message = "unterminated string literal"; pos = start_pos })
  in
  go ();
  Buffer.contents buf

let tokenize input =
  let st = { input; offset = 0; line = 1; col = 1 } in
  let rec next acc =
    match peek st with
    | None -> List.rev ({ Token.token = Token.Eof; pos = pos st } :: acc)
    | Some c -> (
        match c with
        | ' ' | '\t' | '\r' | '\n' ->
            advance st;
            next acc
        | '-' when peek2 st = Some '-' ->
            skip_line_comment st;
            next acc
        | '-' when (match peek2 st with Some c -> is_digit c | None -> false)
          ->
            (* a negative literal: the dialect has no binary minus, so a
               sign glued to digits is unambiguous ([--] is a comment) *)
            let p = pos st in
            advance st;
            let digits = take_while st is_digit in
            let token =
              match (peek st, peek2 st) with
              | Some '.', Some c when is_digit c ->
                  advance st;
                  let frac = take_while st is_digit in
                  Token.Float (-.float_of_string (digits ^ "." ^ frac))
              | _ -> int_literal ~pos:p ("-" ^ digits)
            in
            (match peek st with
            | Some c when is_ident_start c ->
                error st "identifier may not start with a digit"
            | Some _ | None -> ());
            next ({ Token.token; pos = p } :: acc)
        | '=' ->
            let p = pos st in
            advance st;
            next ({ Token.token = Token.Op "="; pos = p } :: acc)
        | '<' ->
            let p = pos st in
            advance st;
            let op =
              match peek st with
              | Some '>' ->
                  advance st;
                  "<>"
              | Some '=' ->
                  advance st;
                  "<="
              | _ -> "<"
            in
            next ({ Token.token = Token.Op op; pos = p } :: acc)
        | '>' ->
            let p = pos st in
            advance st;
            let op =
              match peek st with
              | Some '=' ->
                  advance st;
                  ">="
              | _ -> ">"
            in
            next ({ Token.token = Token.Op op; pos = p } :: acc)
        | '/' when peek2 st = Some '*' ->
            advance st;
            advance st;
            skip_block_comment st;
            next acc
        | '\'' ->
            let p = pos st in
            let s = read_string st in
            next ({ Token.token = Token.String s; pos = p } :: acc)
        | '(' | ')' | ',' | '.' | '*' ->
            let p = pos st in
            let token =
              match c with
              | '(' -> Token.Lparen
              | ')' -> Token.Rparen
              | ',' -> Token.Comma
              | '.' -> Token.Dot
              | _ -> Token.Star
            in
            advance st;
            next ({ Token.token; pos = p } :: acc)
        | c when is_digit c ->
            let p = pos st in
            let digits = take_while st is_digit in
            let token =
              match (peek st, peek2 st) with
              | Some '.', Some c when is_digit c ->
                  advance st;
                  let frac = take_while st is_digit in
                  Token.Float (float_of_string (digits ^ "." ^ frac))
              | _ -> int_literal ~pos:p digits
            in
            (match peek st with
            | Some c when is_ident_start c ->
                error st "identifier may not start with a digit"
            | Some _ | None -> ());
            next ({ Token.token; pos = p } :: acc)
        | c when is_ident_start c ->
            let p = pos st in
            let ident = take_while st is_ident_char in
            next ({ Token.token = Token.Ident ident; pos = p } :: acc)
        | c -> error st (Printf.sprintf "unexpected character %C" c))
  in
  next []
