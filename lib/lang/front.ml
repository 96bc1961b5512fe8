(** The MiniC front end: split a source into top-level item groups, lex and
    parse each group, and type-check the whole program (see the interface). *)

type group = { line : int; text : string }

(* One pass over the characters that the lexer also treats specially:
   comments, braces and line ends. A group ends with the line end that
   closes it, so the next group starts at column 1 and no token or comment
   ever spans two groups. An unterminated block comment runs to the end of
   the source, inside the last group, whose lexing then fails as the
   whole-file lexing does. *)
let split (src : string) : group list =
  let n = String.length src in
  let groups = ref [] in
  let start = ref 0 and start_line = ref 1 and line = ref 1 in
  let depth = ref 0 and last = ref ' ' in
  let i = ref 0 in
  while !i < n do
    match src.[!i] with
    | '\n' ->
      incr i;
      incr line;
      if !depth = 0 && (!last = '}' || !last = ';') then begin
        groups := { line = !start_line; text = String.sub src !start (!i - !start) } :: !groups;
        start := !i;
        start_line := !line;
        last := ' '
      end
    | '/' when !i + 1 < n && src.[!i + 1] = '/' ->
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    | '/' when !i + 1 < n && src.[!i + 1] = '*' ->
      i := !i + 2;
      while !i < n && not (src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/') do
        if src.[!i] = '\n' then incr line;
        incr i
      done;
      i := min n (!i + 2)
    | (' ' | '\t' | '\r') -> incr i
    | c ->
      if c = '{' then incr depth else if c = '}' then decr depth;
      last := c;
      incr i
  done;
  if !start < n then
    groups := { line = !start_line; text = String.sub src !start (n - !start) } :: !groups;
  List.rev !groups

let parse_group (g : group) = Parser.parse_program ~line:g.line g.text

(* Any group that fails sends the whole source through the one-piece
   parse, which raises the error the source has always raised: the first
   lexical error of the file before any parse error. *)
let parse ?(parse_group = parse_group) (src : string) : Ast.program =
  match List.map parse_group (split src) with
  | [ p ] -> p
  | parts ->
    {
      Ast.globals = List.concat_map (fun (p : Ast.program) -> p.Ast.globals) parts;
      funcs = List.concat_map (fun (p : Ast.program) -> p.Ast.funcs) parts;
    }
  | exception (Lexer.Error _ | Parser.Error _) -> Parser.parse_program src

type memo = {
  parse_group : group -> Ast.program;
  since : (Typecheck.tables * (Ast.func -> bool)) option;
}

(* A memo may serve a group parsed where it stood before an edit, so the
   warm program's lines may be stale: a type error raised on it is raised
   again by the cold parse and check, which alone carries positions. *)
let rec parse_and_check ?memo (src : string) : Ast.program =
  let program = parse ?parse_group:(Option.map (fun m -> m.parse_group) memo) src in
  match Typecheck.check_program ?since:(Option.bind memo (fun m -> m.since)) program with
  | () -> program
  | exception Typecheck.Error _ when Option.is_some memo -> parse_and_check src

let describe_error = function
  | Lexer.Error (msg, line, col) ->
    Some (Printf.sprintf "lexical error at %d:%d: %s" line col msg)
  | Parser.Error (msg, line, col) ->
    Some (Printf.sprintf "parse error at %d:%d: %s" line col msg)
  | Typecheck.Error (msg, line) -> Some (Printf.sprintf "type error at line %d: %s" line msg)
  | _ -> None
