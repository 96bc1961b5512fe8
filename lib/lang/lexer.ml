(** Hand-written lexer for MiniC. *)

type token =
  | INT of int
  | FLOAT of float
  | IDENT of string
  | KW_INT
  | KW_FLOAT
  | KW_VOID
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_FOR
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | AMP
  | PIPE
  | CARET
  | TILDE
  | BANG
  | SHL
  | SHR
  | ANDAND
  | OROR
  | EQ  (** [=] *)
  | EQEQ
  | NEQ
  | LT
  | LE
  | GT
  | GE
  | PLUSEQ
  | MINUSEQ
  | STAREQ
  | SLASHEQ
  | PERCENTEQ
  | PLUSPLUS
  | MINUSMINUS
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | COMMA
  | SEMI
  | EOF

exception Error of string * int * int  (** message, line, column *)

type lexed = { tok : token; line : int; col : int }

let keyword_of_string = function
  | "int" -> Some KW_INT
  | "float" -> Some KW_FLOAT
  | "void" -> Some KW_VOID
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | _ -> None

let token_to_string = function
  | INT n -> string_of_int n
  | FLOAT f -> string_of_float f
  | IDENT s -> s
  | KW_INT -> "int"
  | KW_FLOAT -> "float"
  | KW_VOID -> "void"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | AMP -> "&"
  | PIPE -> "|"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | SHL -> "<<"
  | SHR -> ">>"
  | ANDAND -> "&&"
  | OROR -> "||"
  | EQ -> "="
  | EQEQ -> "=="
  | NEQ -> "!="
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | PLUSEQ -> "+="
  | MINUSEQ -> "-="
  | STAREQ -> "*="
  | SLASHEQ -> "/="
  | PERCENTEQ -> "%="
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | EOF -> "<eof>"

(* Filler for the unused tail of [tokenize]'s buffer. *)
let no_token = { tok = EOF; line = 0; col = 0 }

let is_digit c = c >= '0' && c <= '9'
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

(** [tokenize src] turns [src] into a token array ending with [EOF].
    Supports [//] line comments and [/* */] block comments.
    @raise Error on malformed input. *)
let tokenize (src : string) : lexed array =
  let n = String.length src in
  let pos = ref 0 in
  let line = ref 1 in
  let bol = ref 0 in
  (* A growing buffer, sized so that it rarely grows: the benchmark
     corpus's sources run from 2.6 to 4.3 bytes a token. *)
  let out = ref (Array.make ((n / 2) + 16) no_token) in
  let count = ref 0 in
  let col () = !pos - !bol + 1 in
  let fail msg = raise (Error (msg, !line, col ())) in
  let next_is c = !pos + 1 < n && src.[!pos + 1] = c in
  let advance () =
    (if src.[!pos] = '\n' then begin
       incr line;
       bol := !pos + 1
     end);
    incr pos
  in
  let emit tok ~line ~col =
    if !count = Array.length !out then begin
      let grown = Array.make (2 * !count) no_token in
      Array.blit !out 0 grown 0 !count;
      out := grown
    end;
    !out.(!count) <- { tok; line; col };
    incr count
  in
  (* Operator tokens of one and two characters, starting at [!pos]. *)
  let emit1 tok =
    let line = !line and col = col () in
    advance ();
    emit tok ~line ~col
  in
  let emit2 tok =
    let line = !line and col = col () in
    advance ();
    advance ();
    emit tok ~line ~col
  in
  while !pos < n do
    let c = src.[!pos] in
    let tok_line = !line and tok_col = col () in
    match c with
    | ' ' | '\t' | '\r' | '\n' -> advance ()
    | '/' when next_is '/' ->
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done
    | '/' when next_is '*' ->
      advance ();
      advance ();
      let rec skip () =
        if !pos + 1 >= n then fail "unterminated block comment"
        else if src.[!pos] = '*' && src.[!pos + 1] = '/' then begin
          advance ();
          advance ()
        end
        else begin
          advance ();
          skip ()
        end
      in
      skip ()
    | '0' .. '9' ->
      let start = !pos in
      while !pos < n && is_digit src.[!pos] do
        advance ()
      done;
      let is_float =
        !pos < n && src.[!pos] = '.' && !pos + 1 < n && is_digit src.[!pos + 1]
      in
      if is_float then begin
        advance ();
        while !pos < n && is_digit src.[!pos] do
          advance ()
        done;
        let text = String.sub src start (!pos - start) in
        emit (FLOAT (float_of_string text)) ~line:tok_line ~col:tok_col
      end
      else begin
        let text = String.sub src start (!pos - start) in
        match int_of_string_opt text with
        | Some v -> emit (INT v) ~line:tok_line ~col:tok_col
        | None -> fail (Printf.sprintf "integer literal too large: %s" text)
      end
    | c when is_ident_start c ->
      let start = !pos in
      while !pos < n && is_ident_char src.[!pos] do
        advance ()
      done;
      let text = String.sub src start (!pos - start) in
      let tok =
        match keyword_of_string text with Some kw -> kw | None -> IDENT text
      in
      emit tok ~line:tok_line ~col:tok_col
    | '+' ->
      if next_is '+' then emit2 PLUSPLUS
      else if next_is '=' then emit2 PLUSEQ
      else emit1 PLUS
    | '-' ->
      if next_is '-' then emit2 MINUSMINUS
      else if next_is '=' then emit2 MINUSEQ
      else emit1 MINUS
    | '*' -> if next_is '=' then emit2 STAREQ else emit1 STAR
    | '/' -> if next_is '=' then emit2 SLASHEQ else emit1 SLASH
    | '%' -> if next_is '=' then emit2 PERCENTEQ else emit1 PERCENT
    | '&' -> if next_is '&' then emit2 ANDAND else emit1 AMP
    | '|' -> if next_is '|' then emit2 OROR else emit1 PIPE
    | '^' -> emit1 CARET
    | '~' -> emit1 TILDE
    | '!' -> if next_is '=' then emit2 NEQ else emit1 BANG
    | '=' -> if next_is '=' then emit2 EQEQ else emit1 EQ
    | '<' ->
      if next_is '<' then emit2 SHL
      else if next_is '=' then emit2 LE
      else emit1 LT
    | '>' ->
      if next_is '>' then emit2 SHR
      else if next_is '=' then emit2 GE
      else emit1 GT
    | '(' -> emit1 LPAREN
    | ')' -> emit1 RPAREN
    | '{' -> emit1 LBRACE
    | '}' -> emit1 RBRACE
    | '[' -> emit1 LBRACKET
    | ']' -> emit1 RBRACKET
    | ',' -> emit1 COMMA
    | ';' -> emit1 SEMI
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  done;
  emit EOF ~line:!line ~col:(col ());
  Array.sub !out 0 !count
