(** Recursive-descent parser for MiniC.

    Grammar (C-like precedence, tightest last):
    {v
    program   := (global | func)*
    global    := type ident ("[" INT "]")? ";"
    func      := type ident "(" params? ")" block
    block     := "{" stmt* "}"
    stmt      := decl ";" | simple ";" | if | while | for | flow ";" | block
    simple    := lvalue "=" expr | lvalue op"=" expr | lvalue "++"/"--" | expr
    expr      := or
    or        := and ("||" and)*
    and       := bitor ("&&" bitor)*
    bitor     := bitxor ("|" bitxor)*
    bitxor    := bitand ("^" bitand)*
    bitand    := equality ("&" equality)*
    equality  := relational (("==" | "!=") relational)*
    relational:= shift (("<" | "<=" | ">" | ">=") shift)*
    shift     := additive (("<<" | ">>") additive)*
    additive  := term (("+" | "-") term)*
    term      := unary (("*" | "/" | "%") unary)*
    unary     := ("-" | "!" | "~") unary | postfix
    postfix   := INT | FLOAT | ident | ident "(" args ")" | ident "[" expr "]"
               | "(" expr ")"
    v} *)

open Ast

exception Error of string * int * int  (** message, line, column *)

type state = { toks : Lexer.lexed array; mutable pos : int }

let peek st = st.toks.(st.pos)
let peek_tok st = (peek st).tok

let advance st = st.pos <- st.pos + 1

let fail st msg =
  let l = peek st in
  raise (Error (msg, l.line, l.col))

(* Tokens without an argument are immediates: [==] compares them exactly,
   without a call into polymorphic comparison. [expect] takes only such
   tokens. *)
let expect st tok =
  if peek_tok st == tok then advance st
  else
    fail st
      (Printf.sprintf "expected '%s' but found '%s'"
         (Lexer.token_to_string tok)
         (Lexer.token_to_string (peek_tok st)))

let expect_ident st =
  match peek_tok st with
  | Lexer.IDENT name ->
    advance st;
    name
  | tok -> fail st (Printf.sprintf "expected identifier, found '%s'" (Lexer.token_to_string tok))

let parse_type_opt st =
  match peek_tok st with
  | Lexer.KW_INT -> advance st; Some Tint
  | Lexer.KW_FLOAT -> advance st; Some Tfloat
  | Lexer.KW_VOID -> advance st; Some Tvoid
  | _ -> None

let parse_type st =
  match parse_type_opt st with
  | Some ty -> ty
  | None ->
    fail st (Printf.sprintf "expected a type, found '%s'" (Lexer.token_to_string (peek_tok st)))

(* --- Expressions --- *)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while peek_tok st == Lexer.OROR do
    advance st;
    lhs := Or (!lhs, parse_and st)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_bitor st) in
  while peek_tok st == Lexer.ANDAND do
    advance st;
    lhs := And (!lhs, parse_bitor st)
  done;
  !lhs

and parse_bitor st =
  let lhs = ref (parse_bitxor st) in
  while peek_tok st == Lexer.PIPE do
    advance st;
    lhs := Binop (Bor, !lhs, parse_bitxor st)
  done;
  !lhs

and parse_bitxor st =
  let lhs = ref (parse_bitand st) in
  while peek_tok st == Lexer.CARET do
    advance st;
    lhs := Binop (Bxor, !lhs, parse_bitand st)
  done;
  !lhs

and parse_bitand st =
  let lhs = ref (parse_equality st) in
  while peek_tok st == Lexer.AMP do
    advance st;
    lhs := Binop (Band, !lhs, parse_equality st)
  done;
  !lhs

and parse_equality st =
  let lhs = ref (parse_relational st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | Lexer.EQEQ ->
      advance st;
      lhs := Rel (Eq, !lhs, parse_relational st)
    | Lexer.NEQ ->
      advance st;
      lhs := Rel (Ne, !lhs, parse_relational st)
    | _ -> continue := false
  done;
  !lhs

and parse_relational st =
  let lhs = ref (parse_shift st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | Lexer.LT ->
      advance st;
      lhs := Rel (Lt, !lhs, parse_shift st)
    | Lexer.LE ->
      advance st;
      lhs := Rel (Le, !lhs, parse_shift st)
    | Lexer.GT ->
      advance st;
      lhs := Rel (Gt, !lhs, parse_shift st)
    | Lexer.GE ->
      advance st;
      lhs := Rel (Ge, !lhs, parse_shift st)
    | _ -> continue := false
  done;
  !lhs

and parse_shift st =
  let lhs = ref (parse_additive st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | Lexer.SHL ->
      advance st;
      lhs := Binop (Shl, !lhs, parse_additive st)
    | Lexer.SHR ->
      advance st;
      lhs := Binop (Shr, !lhs, parse_additive st)
    | _ -> continue := false
  done;
  !lhs

and parse_additive st =
  let lhs = ref (parse_term st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | Lexer.PLUS ->
      advance st;
      lhs := Binop (Add, !lhs, parse_term st)
    | Lexer.MINUS ->
      advance st;
      lhs := Binop (Sub, !lhs, parse_term st)
    | _ -> continue := false
  done;
  !lhs

and parse_term st =
  let lhs = ref (parse_unary st) in
  let continue = ref true in
  while !continue do
    match peek_tok st with
    | Lexer.STAR ->
      advance st;
      lhs := Binop (Mul, !lhs, parse_unary st)
    | Lexer.SLASH ->
      advance st;
      lhs := Binop (Div, !lhs, parse_unary st)
    | Lexer.PERCENT ->
      advance st;
      lhs := Binop (Mod, !lhs, parse_unary st)
    | _ -> continue := false
  done;
  !lhs

and parse_unary st =
  match peek_tok st with
  | Lexer.MINUS ->
    advance st;
    (* Fold negation into literals so "-5" is a constant, not an operation. *)
    (match parse_unary st with
    | Int n -> Int (-n)
    | Float f -> Float (-.f)
    | e -> Unop (Neg, e))
  | Lexer.BANG ->
    advance st;
    Unop (Lnot, parse_unary st)
  | Lexer.TILDE ->
    advance st;
    Unop (Bnot, parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  match peek_tok st with
  | Lexer.INT n ->
    advance st;
    Int n
  | Lexer.FLOAT f ->
    advance st;
    Float f
  | Lexer.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Lexer.RPAREN;
    e
  | Lexer.IDENT name -> (
    advance st;
    match peek_tok st with
    | Lexer.LPAREN ->
      advance st;
      let args = parse_args st in
      expect st Lexer.RPAREN;
      Call (name, args)
    | Lexer.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Lexer.RBRACKET;
      Index (name, idx)
    | _ -> Var name)
  | tok -> fail st (Printf.sprintf "expected expression, found '%s'" (Lexer.token_to_string tok))

and parse_args st =
  if peek_tok st == Lexer.RPAREN then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if peek_tok st == Lexer.COMMA then begin
        advance st;
        loop (e :: acc)
      end
      else List.rev (e :: acc)
    in
    loop []
  end

(* --- Statements --- *)

let parse_lvalue_from_expr st = function
  | Var name -> Lvar name
  | Index (name, idx) -> Lindex (name, idx)
  | _ -> fail st "left-hand side of assignment must be a variable or array element"

(** Simple statement: assignment, compound assignment, ++/--, or a bare
    expression. Used both as a statement and in [for] headers. *)
let parse_simple st =
  let line = (peek st).line in
  let e = parse_expr st in
  let mk sdesc = { sline = line; sdesc } in
  match peek_tok st with
  | Lexer.EQ ->
    advance st;
    let lv = parse_lvalue_from_expr st e in
    mk (Sassign (lv, parse_expr st))
  | Lexer.PLUSEQ | Lexer.MINUSEQ | Lexer.STAREQ | Lexer.SLASHEQ | Lexer.PERCENTEQ ->
    let op =
      match peek_tok st with
      | Lexer.PLUSEQ -> Add
      | Lexer.MINUSEQ -> Sub
      | Lexer.STAREQ -> Mul
      | Lexer.SLASHEQ -> Div
      | Lexer.PERCENTEQ -> Mod
      | _ -> assert false
    in
    advance st;
    let lv = parse_lvalue_from_expr st e in
    let lv_expr = match lv with Lvar v -> Var v | Lindex (a, i) -> Index (a, i) in
    mk (Sassign (lv, Binop (op, lv_expr, parse_expr st)))
  | Lexer.PLUSPLUS ->
    advance st;
    let lv = parse_lvalue_from_expr st e in
    let lv_expr = match lv with Lvar v -> Var v | Lindex (a, i) -> Index (a, i) in
    mk (Sassign (lv, Binop (Add, lv_expr, Int 1)))
  | Lexer.MINUSMINUS ->
    advance st;
    let lv = parse_lvalue_from_expr st e in
    let lv_expr = match lv with Lvar v -> Var v | Lindex (a, i) -> Index (a, i) in
    mk (Sassign (lv, Binop (Sub, lv_expr, Int 1)))
  | _ -> mk (Sexpr e)

let rec parse_stmt st : stmt list =
  let line = (peek st).line in
  let mk sdesc = { sline = line; sdesc } in
  match peek_tok st with
  | Lexer.KW_INT | Lexer.KW_FLOAT ->
    let ty = parse_type st in
    let decls = parse_decl_list st ty ~line in
    expect st Lexer.SEMI;
    decls
  | Lexer.KW_IF ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let then_blk = parse_stmt_as_block st in
    let else_blk =
      if peek_tok st == Lexer.KW_ELSE then begin
        advance st;
        Some (parse_stmt_as_block st)
      end
      else None
    in
    [ mk (Sif (cond, then_blk, else_blk)) ]
  | Lexer.KW_WHILE ->
    advance st;
    expect st Lexer.LPAREN;
    let cond = parse_expr st in
    expect st Lexer.RPAREN;
    let body = parse_stmt_as_block st in
    [ mk (Swhile (cond, body)) ]
  | Lexer.KW_FOR ->
    advance st;
    expect st Lexer.LPAREN;
    let init =
      if peek_tok st == Lexer.SEMI then None
      else begin
        (* Allow a declaration in the for header: for (int i = 0; ...). *)
        match parse_type_opt st with
        | Some ty ->
          let name = expect_ident st in
          expect st Lexer.EQ;
          let e = parse_expr st in
          Some { sline = line; sdesc = Sdecl (ty, name, Iscalar (Some e)) }
        | None -> Some (parse_simple st)
      end
    in
    expect st Lexer.SEMI;
    let cond = if peek_tok st == Lexer.SEMI then None else Some (parse_expr st) in
    expect st Lexer.SEMI;
    let step = if peek_tok st == Lexer.RPAREN then None else Some (parse_simple st) in
    expect st Lexer.RPAREN;
    let body = parse_stmt_as_block st in
    [ mk (Sfor (init, cond, step, body)) ]
  | Lexer.KW_RETURN ->
    advance st;
    let e = if peek_tok st == Lexer.SEMI then None else Some (parse_expr st) in
    expect st Lexer.SEMI;
    [ mk (Sreturn e) ]
  | Lexer.KW_BREAK ->
    advance st;
    expect st Lexer.SEMI;
    [ mk Sbreak ]
  | Lexer.KW_CONTINUE ->
    advance st;
    expect st Lexer.SEMI;
    [ mk Scontinue ]
  | Lexer.LBRACE ->
    (* A nested block is flattened into the surrounding statement list; MiniC
       scoping is per-function, as the analyses all run on the CFG anyway. *)
    parse_block st
  | Lexer.SEMI ->
    advance st;
    []
  | _ ->
    let s = parse_simple st in
    expect st Lexer.SEMI;
    [ s ]

and parse_decl_list st ty ~line =
  let rec loop acc =
    let name = expect_ident st in
    let decl =
      match peek_tok st with
      | Lexer.LBRACKET ->
        advance st;
        let size =
          match peek_tok st with
          | Lexer.INT n ->
            advance st;
            n
          | _ -> fail st "array size must be an integer literal"
        in
        expect st Lexer.RBRACKET;
        { sline = line; sdesc = Sdecl (ty, name, Iarray size) }
      | Lexer.EQ ->
        advance st;
        let e = parse_expr st in
        { sline = line; sdesc = Sdecl (ty, name, Iscalar (Some e)) }
      | _ -> { sline = line; sdesc = Sdecl (ty, name, Iscalar None) }
    in
    if peek_tok st == Lexer.COMMA then begin
      advance st;
      loop (decl :: acc)
    end
    else List.rev (decl :: acc)
  in
  loop []

and parse_block st : block =
  expect st Lexer.LBRACE;
  let rec loop acc =
    if peek_tok st == Lexer.RBRACE then begin
      advance st;
      List.rev acc
    end
    else begin
      let stmts = parse_stmt st in
      loop (List.rev_append stmts acc)
    end
  in
  loop []

and parse_stmt_as_block st : block =
  if peek_tok st == Lexer.LBRACE then parse_block st else parse_stmt st

(* --- Top level --- *)

let parse_params st =
  if peek_tok st == Lexer.RPAREN then []
  else begin
    let rec loop acc =
      let pty = parse_type st in
      let pname = expect_ident st in
      let p = { pty; pname } in
      if peek_tok st == Lexer.COMMA then begin
        advance st;
        loop (p :: acc)
      end
      else List.rev (p :: acc)
    in
    loop []
  end

let parse_program ?line (src : string) : program =
  let toks = Lexer.tokenize ?line src in
  let st = { toks; pos = 0 } in
  let globals = ref [] in
  let funcs = ref [] in
  while peek_tok st != Lexer.EOF do
    let line = (peek st).line in
    let ty = parse_type st in
    let name = expect_ident st in
    match peek_tok st with
    | Lexer.LPAREN ->
      advance st;
      let params = parse_params st in
      expect st Lexer.RPAREN;
      let body = parse_block st in
      funcs := { fty = ty; fname = name; params; body; fline = line } :: !funcs
    | Lexer.LBRACKET ->
      advance st;
      let size =
        match peek_tok st with
        | Lexer.INT n ->
          advance st;
          n
        | _ -> fail st "global array size must be an integer literal"
      in
      expect st Lexer.RBRACKET;
      expect st Lexer.SEMI;
      globals := { gty = ty; gname = name; gsize = Some size; gline = line } :: !globals
    | Lexer.SEMI ->
      advance st;
      globals := { gty = ty; gname = name; gsize = None; gline = line } :: !globals
    | tok ->
      fail st
        (Printf.sprintf "expected '(', '[' or ';' after top-level name, found '%s'"
           (Lexer.token_to_string tok))
  done;
  { globals = List.rev !globals; funcs = List.rev !funcs }
