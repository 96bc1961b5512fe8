(** The MiniC front end: lex, parse and type-check a source.

    A source is parsed one top-level item group at a time. {!split} cuts
    it only at a line end where the brace depth is 0, no comment is open
    and the last significant character is a [}] or a [;], so each group
    starts at column 1 and holds whole items. The groups' parses,
    concatenated, are the whole-file parse, lines included: lexing never
    crosses a line end outside a comment, and the parser's item loop keeps
    no state between items. That lets a caller that keeps the previous
    parse of an edited source re-parse only the groups whose text changed
    ({!parse}'s [parse_group]), and skip type-checking the bodies of the
    functions in the unchanged groups ({!memo}). No IR carries a line, so
    a line matters only in an error, and every error comes from the cold
    path: a memo may serve a group parsed where it stood before. *)

(** A run of whole top-level items: [text] starts at column 1 of source
    line [line] and ends with the line end after its last item (the last
    group ends where the source does). *)
type group = { line : int; text : string }

(** The source's item groups, in order; their texts concatenate to the
    source. *)
val split : string -> group list

(** Lex and parse one group, with its lines.
    @raise Lexer.Error or Parser.Error on bad input. *)
val parse_group : group -> Ast.program

(** Parse a source group by group through [parse_group] (default
    {!parse_group}) and concatenate the parts. If any group fails to lex or
    parse, the whole source is parsed in one piece, so the error (text,
    position and precedence: the first lexical error of the file before
    any parse error) is the one a whole-file parse raises.
    @raise Lexer.Error or Parser.Error on bad input. *)
val parse : ?parse_group:(group -> Ast.program) -> string -> Ast.program

(** What a caller remembers of a source's last good compile. *)
type memo = {
  parse_group : group -> Ast.program;  (** {!parse}'s; lines may be stale *)
  since : (Typecheck.tables * (Ast.func -> bool)) option;
      (** {!Typecheck.check_program}'s [since]: the tables of the last good
          compile, and whether a function comes from a group whose text is
          unchanged since then (asked once every group is parsed) *)
}

(** {!parse}, then type-check the program, through [memo] when given; a
    type error under [memo] is raised again by a cold parse and check, so
    every error (text and line) is a whole-file parse and check's.
    @raise Lexer.Error, Parser.Error or Typecheck.Error on bad input. *)
val parse_and_check : ?memo:memo -> string -> Ast.program

(** Human-readable rendering of front-end exceptions; [None] for other
    exceptions. *)
val describe_error : exn -> string option
