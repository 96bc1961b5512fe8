(** Recursive-descent parser for MiniC (C-like precedence; grammar in the
    implementation header). *)

(** (message, line, column) *)
exception Error of string * int * int

(** Parse a source whose first character sits at column 1 of line [line]
    (default 1).
    @raise Error or {!Lexer.Error} on malformed input. *)
val parse_program : ?line:int -> string -> Ast.program
