(** Front-end tests: lexer, parser, pretty-printer round trips, type
    checker acceptance and diagnostics. *)

open Vrp_lang

let tc = Alcotest.test_case

(* --- Lexer --- *)

let tokens src =
  List.map (fun (l : Lexer.lexed) -> l.Lexer.tok) (Array.to_list (Lexer.tokenize src))

let lex_ints () =
  Alcotest.(check bool)
    "ints and floats" true
    (tokens "42 3.5 0" = [ INT 42; FLOAT 3.5; INT 0; EOF ])

let lex_operators () =
  Alcotest.(check bool)
    "compound operators" true
    (tokens "<= >= == != << >> && || += ++"
    = [ LE; GE; EQEQ; NEQ; SHL; SHR; ANDAND; OROR; PLUSEQ; PLUSPLUS; EOF ])

let lex_keywords_vs_idents () =
  Alcotest.(check bool)
    "keywords vs identifiers" true
    (tokens "if iffy for fortune int integer"
    = [ KW_IF; IDENT "iffy"; KW_FOR; IDENT "fortune"; KW_INT; IDENT "integer"; EOF ])

let lex_comments () =
  Alcotest.(check bool)
    "line and block comments" true
    (tokens "a // comment\nb /* multi\nline */ c" = [ IDENT "a"; IDENT "b"; IDENT "c"; EOF ])

let lex_positions () =
  match Lexer.tokenize "x\n  y" with
  | [| a; b; _eof |] ->
    Alcotest.(check (pair int int)) "x at 1:1" (1, 1) (a.Lexer.line, a.Lexer.col);
    Alcotest.(check (pair int int)) "y at 2:3" (2, 3) (b.Lexer.line, b.Lexer.col)
  | _ -> Alcotest.fail "expected two tokens"

let lex_error_char () =
  match Lexer.tokenize "a $ b" with
  | exception Lexer.Error (_, 1, 3) -> ()
  | exception Lexer.Error (m, l, c) -> Alcotest.failf "wrong position %s %d:%d" m l c
  | _ -> Alcotest.fail "expected lexical error"

let lex_unterminated_comment () =
  match Lexer.tokenize "a /* never closed" with
  | exception Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected lexical error"

(* --- Lexer oracle ---

   [tokenize] fills a growing array. The list-building lexer it replaced
   stays here, verbatim, as the reference: on every suite source, and on
   fuzz programs with random byte mutations, both must yield the same
   tokens at the same line and column, or the same [Error] (message, line,
   column). *)

module Reference = struct
  open Lexer

  let is_digit c = c >= '0' && c <= '9'
  let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  let is_ident_char c = is_ident_start c || is_digit c

  let tokenize (src : string) : lexed list =
    let n = String.length src in
    let pos = ref 0 in
    let line = ref 1 in
    let bol = ref 0 in
    let out = ref [] in
    let col () = !pos - !bol + 1 in
    let fail msg = raise (Error (msg, !line, col ())) in
    let peek off = if !pos + off < n then Some src.[!pos + off] else None in
    let advance () =
      (if src.[!pos] = '\n' then begin
         incr line;
         bol := !pos + 1
       end);
      incr pos
    in
    let emit tok ~line ~col = out := { tok; line; col } :: !out in
    while !pos < n do
      let c = src.[!pos] in
      let tok_line = !line and tok_col = col () in
      let emit1 tok = advance (); emit tok ~line:tok_line ~col:tok_col in
      let emit2 tok = advance (); advance (); emit tok ~line:tok_line ~col:tok_col in
      match c with
      | ' ' | '\t' | '\r' | '\n' -> advance ()
      | '/' when peek 1 = Some '/' ->
        while !pos < n && src.[!pos] <> '\n' do
          advance ()
        done
      | '/' when peek 1 = Some '*' ->
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
        if peek 1 = Some '+' then emit2 PLUSPLUS
        else if peek 1 = Some '=' then emit2 PLUSEQ
        else emit1 PLUS
      | '-' ->
        if peek 1 = Some '-' then emit2 MINUSMINUS
        else if peek 1 = Some '=' then emit2 MINUSEQ
        else emit1 MINUS
      | '*' -> if peek 1 = Some '=' then emit2 STAREQ else emit1 STAR
      | '/' -> if peek 1 = Some '=' then emit2 SLASHEQ else emit1 SLASH
      | '%' -> if peek 1 = Some '=' then emit2 PERCENTEQ else emit1 PERCENT
      | '&' -> if peek 1 = Some '&' then emit2 ANDAND else emit1 AMP
      | '|' -> if peek 1 = Some '|' then emit2 OROR else emit1 PIPE
      | '^' -> emit1 CARET
      | '~' -> emit1 TILDE
      | '!' -> if peek 1 = Some '=' then emit2 NEQ else emit1 BANG
      | '=' -> if peek 1 = Some '=' then emit2 EQEQ else emit1 EQ
      | '<' ->
        if peek 1 = Some '<' then emit2 SHL
        else if peek 1 = Some '=' then emit2 LE
        else emit1 LT
      | '>' ->
        if peek 1 = Some '>' then emit2 SHR
        else if peek 1 = Some '=' then emit2 GE
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
    List.rev !out
end

let lex_outcome lex src =
  match lex src with
  | toks -> Ok (List.map (fun (l : Lexer.lexed) -> (l.tok, l.line, l.col)) toks)
  | exception Lexer.Error (msg, line, col) -> Error (msg, line, col)

let lexers_agree src =
  lex_outcome (fun s -> Array.to_list (Lexer.tokenize s)) src
  = lex_outcome Reference.tokenize src

let lex_oracle_suite () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      if not (lexers_agree b.Vrp_suite.Suite.source) then
        Alcotest.failf "%s: lexers disagree" b.Vrp_suite.Suite.name)
    Vrp_suite.Suite.benchmarks

(* Bytes a mutation writes: the lexer's every branch, comment openers and
   closers, newlines, and characters it rejects. *)
let mutation_bytes = "/*\n \t019.aZ_+-<>=!&|^~%(){}[],;$#@\"'\\"

let gen_mutated_program =
  let open QCheck2.Gen in
  let* seed = int_bound 1_000_000 in
  let* edits =
    list_size (int_range 0 6)
      (triple (int_bound 2) (float_bound_exclusive 1.0) (int_bound (String.length mutation_bytes - 1)))
  in
  let profiles = Vrp_fuzz.Gen.profiles in
  let p = List.nth profiles (seed mod List.length profiles) in
  let src =
    Pretty.program_to_string
      (Vrp_fuzz.Gen.program (Vrp_util.Prng.create seed) ~weights:p.Vrp_fuzz.Gen.weights)
  in
  let mutate src (kind, at, byte) =
    let i = int_of_float (at *. float_of_int (String.length src)) in
    let b = String.make 1 mutation_bytes.[byte] in
    let before = String.sub src 0 i and after = String.sub src i (String.length src - i) in
    match kind with
    | 0 -> before ^ b ^ after  (* insert *)
    | 1 when after <> "" -> before ^ b ^ String.sub after 1 (String.length after - 1)  (* replace *)
    | _ when after <> "" -> before ^ String.sub after 1 (String.length after - 1)  (* delete *)
    | _ -> src
  in
  return (List.fold_left mutate src edits)

let lex_oracle_mutations =
  Helpers.qtest ~count:300 "lex: array lexer agrees with the list reference" gen_mutated_program
    lexers_agree

(* --- Parser --- *)

let parse src = Parser.parse_program src

let expr_of src =
  match (List.hd (parse ("int f() { return " ^ src ^ "; }")).funcs).body with
  | [ { sdesc = Ast.Sreturn (Some e); _ } ] -> e
  | _ -> Alcotest.fail "unexpected shape"

let parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  (match expr_of "1 + 2 * 3" with
  | Ast.Binop (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3)) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Pretty.expr_to_string e));
  (* comparisons bind looser than arithmetic *)
  (match expr_of "a + 1 < b * 2" with
  | Ast.Rel (Ast.Lt, Ast.Binop (Ast.Add, _, _), Ast.Binop (Ast.Mul, _, _)) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Pretty.expr_to_string e));
  (* && binds looser than == *)
  match expr_of "a == 1 && b == 2" with
  | Ast.And (Ast.Rel (Ast.Eq, _, _), Ast.Rel (Ast.Eq, _, _)) -> ()
  | e -> Alcotest.failf "bad precedence: %s" (Pretty.expr_to_string e)

let parse_associativity () =
  match expr_of "10 - 3 - 2" with
  | Ast.Binop (Ast.Sub, Ast.Binop (Ast.Sub, Ast.Int 10, Ast.Int 3), Ast.Int 2) -> ()
  | e -> Alcotest.failf "subtraction must be left-associative: %s" (Pretty.expr_to_string e)

let parse_unary_minus_folds () =
  match expr_of "-5" with
  | Ast.Int (-5) -> ()
  | e -> Alcotest.failf "-5 should fold to a literal: %s" (Pretty.expr_to_string e)

let parse_compound_assign () =
  let p = parse "int f() { int x = 1; x += 2; x++; return x; }" in
  match (List.hd p.funcs).body with
  | [ _; { sdesc = Ast.Sassign (Ast.Lvar "x", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 2)); _ };
      { sdesc = Ast.Sassign (Ast.Lvar "x", Ast.Binop (Ast.Add, Ast.Var "x", Ast.Int 1)); _ };
      _ ] ->
    ()
  | _ -> Alcotest.fail "compound assignment desugaring"

let parse_dangling_else () =
  let p = parse "int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }" in
  match (List.hd p.funcs).body with
  | [ { sdesc = Ast.Sif (_, [ { sdesc = Ast.Sif (_, _, Some _); _ } ], None); _ }; _ ] -> ()
  | _ -> Alcotest.fail "else must attach to the nearest if"

let parse_for_variants () =
  let p = parse "int f() { for (;;) { break; } for (int i = 0; i < 3; i++) {} return 0; }" in
  match (List.hd p.funcs).body with
  | [ { sdesc = Ast.Sfor (None, None, None, _); _ };
      { sdesc = Ast.Sfor (Some _, Some _, Some _, _); _ }; _ ] ->
    ()
  | _ -> Alcotest.fail "for-loop header variants"

let parse_globals () =
  let p = parse "int g;\nfloat arr[10];\nint main(int a, int b) { return 0; }" in
  Alcotest.(check int) "two globals" 2 (List.length p.globals);
  match p.globals with
  | [ { Ast.gsize = None; _ }; { Ast.gsize = Some 10; gty = Ast.Tfloat; _ } ] -> ()
  | _ -> Alcotest.fail "global shapes"

let parse_error_position () =
  match parse "int f() { return 1 + ; }" with
  | exception Parser.Error (_, 1, _) -> ()
  | _ -> Alcotest.fail "expected parse error"

let parse_error_missing_brace () =
  match parse "int f() { return 1;" with
  | exception Parser.Error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* Round trip: pretty output re-parses to a structurally equal program
   (modulo source lines, which the printer does not preserve). *)
let rec strip_stmt (s : Ast.stmt) = { Ast.sline = 0; sdesc = strip_desc s.Ast.sdesc }

and strip_desc = function
  | Ast.Sif (c, a, b) ->
    Ast.Sif (c, List.map strip_stmt a, Option.map (List.map strip_stmt) b)
  | Ast.Swhile (c, body) -> Ast.Swhile (c, List.map strip_stmt body)
  | Ast.Sfor (i, c, st, body) ->
    Ast.Sfor (Option.map strip_stmt i, c, Option.map strip_stmt st, List.map strip_stmt body)
  | d -> d

let strip (p : Ast.program) =
  {
    Ast.globals = List.map (fun g -> { g with Ast.gline = 0 }) p.globals;
    funcs =
      List.map
        (fun (f : Ast.func) ->
          { f with Ast.fline = 0; Ast.body = List.map strip_stmt f.Ast.body })
        p.funcs;
  }

let roundtrip_suite () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let p1 = Front.parse_and_check b.source in
      let printed = Pretty.program_to_string p1 in
      let p2 =
        try Front.parse_and_check printed
        with e ->
          Alcotest.failf "%s: reprinted source does not parse: %s" b.name
            (Option.value ~default:(Printexc.to_string e) (Front.describe_error e))
      in
      if strip p1 <> strip p2 then Alcotest.failf "%s: round trip not structural" b.name)
    Vrp_suite.Suite.benchmarks

(* --- Type checker --- *)

let accepts src =
  match Front.parse_and_check src with
  | _ -> ()
  | exception e ->
    Alcotest.failf "should type-check: %s"
      (Option.value ~default:(Printexc.to_string e) (Front.describe_error e))

let rejects ?fragment src =
  match Front.parse_and_check src with
  | _ -> Alcotest.fail "should be rejected"
  | exception Typecheck.Error (msg, _) -> (
    match fragment with
    | Some f ->
      if not (Astring.String.is_infix ~affix:f msg) then
        Alcotest.failf "wrong message %S (wanted %S)" msg f
    | None -> ())
  | exception e ->
    Alcotest.failf "wrong exception: %s"
      (Option.value ~default:(Printexc.to_string e) (Front.describe_error e))

let ty_good () =
  accepts "int main(int n, int s) { float f = n; f = f * 2.0; return n; }";
  accepts "int g[4]; int main(int n, int s) { g[0] = n; return g[0]; }";
  accepts "int f(int x) { return x; } int main(int n, int s) { return f(n); }";
  accepts "int main(int n, int s) { for (int i = 0; i < n; i++) { int i2 = i; } return 0; }"

let ty_scoping () =
  (* redeclaration in disjoint scopes and shadowing are both legal *)
  accepts
    "int main(int n, int s) { for (int i = 0; i < 2; i++) {} for (int i = 0; i < 2; i++) {} \
     return 0; }";
  accepts "int main(int n, int s) { int x = 1; if (n) { int x = 2; x = x + 1; } return x; }";
  rejects ~fragment:"duplicate"
    "int main(int n, int s) { int x = 1; int x = 2; return x; }";
  (* a scoped variable is not visible outside its block *)
  rejects ~fragment:"undeclared"
    "int main(int n, int s) { if (n) { int y = 1; } return y; }"

let ty_errors () =
  rejects ~fragment:"undeclared" "int main(int n, int s) { return zz; }";
  rejects ~fragment:"int operands" "int main(int n, int s) { float f = 1.0; return n % 2 + (f % 2.0 > 0.0); }";
  rejects ~fragment:"cannot assign" "int main(int n, int s) { int x = 0; float f = 1.5; x = f; return x; }";
  rejects ~fragment:"argument" "int f(int x) { return x; } int main(int n, int s) { float g = 1.5; return f(g); }";
  rejects ~fragment:"expects" "int f(int x) { return x; } int main(int n, int s) { return f(n, s); }";
  rejects ~fragment:"index" "int a[4]; int main(int n, int s) { float f = 0.5; return a[f]; }";
  rejects ~fragment:"scalar, not an array" "int main(int n, int s) { return n[0]; }";
  rejects ~fragment:"without an index" "int a[4]; int main(int n, int s) { return a; }";
  rejects ~fragment:"break" "int main(int n, int s) { break; return 0; }";
  rejects ~fragment:"continue" "int main(int n, int s) { continue; return 0; }";
  rejects ~fragment:"return a value" "void f() { return 1; } int main(int n, int s) { return 0; }";
  rejects ~fragment:"must return" "int f() { return; } int main(int n, int s) { return 0; }";
  rejects ~fragment:"positive size" "int a[0]; int main(int n, int s) { return 0; }";
  rejects ~fragment:"duplicate function" "int f() { return 0; } int f() { return 1; } int main(int n, int s) { return 0; }";
  rejects ~fragment:"condition" "void p() {} int main(int n, int s) { if (p()) { return 1; } return 0; }"

let suite =
  ( "front",
    [
      tc "lex: ints and floats" `Quick lex_ints;
      tc "lex: operators" `Quick lex_operators;
      tc "lex: keywords vs identifiers" `Quick lex_keywords_vs_idents;
      tc "lex: comments" `Quick lex_comments;
      tc "lex: positions" `Quick lex_positions;
      tc "lex: bad character" `Quick lex_error_char;
      tc "lex: unterminated comment" `Quick lex_unterminated_comment;
      tc "lex: suite agrees with the list reference" `Quick lex_oracle_suite;
      lex_oracle_mutations;
      tc "parse: precedence" `Quick parse_precedence;
      tc "parse: associativity" `Quick parse_associativity;
      tc "parse: unary minus folds" `Quick parse_unary_minus_folds;
      tc "parse: compound assignment" `Quick parse_compound_assign;
      tc "parse: dangling else" `Quick parse_dangling_else;
      tc "parse: for variants" `Quick parse_for_variants;
      tc "parse: globals" `Quick parse_globals;
      tc "parse: error position" `Quick parse_error_position;
      tc "parse: missing brace" `Quick parse_error_missing_brace;
      tc "pretty: suite round-trips" `Quick roundtrip_suite;
      tc "types: accepted programs" `Quick ty_good;
      tc "types: lexical scoping" `Quick ty_scoping;
      tc "types: rejected programs" `Quick ty_errors;
    ] )
