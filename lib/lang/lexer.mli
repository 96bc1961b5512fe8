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
  | EQ
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

(** (message, line, column) *)
exception Error of string * int * int

type lexed = { tok : token; line : int; col : int }

val keyword_of_string : string -> token option
val token_to_string : token -> string

(** Tokenise a whole source (supports [//] and [/* */] comments); the result
    ends with [EOF].
    @raise Error on malformed input. *)
val tokenize : string -> lexed array
