(** Type checker for MiniC.

    MiniC has three types ([int], [float], [void]) and a flat per-function
    scope (declarations anywhere in a function body share one namespace, as
    everything is analysed on the CFG afterwards). The checker enforces:

    - every name is declared before use and declared at most once per scope;
    - arithmetic is over numbers, with implicit [int -> float] promotion;
    - [%], bitwise operators and shifts are integer-only;
    - array indexing applies to arrays with an integer index, scalars are not
      indexed;
    - calls match a known function's arity and parameter types;
    - [return] matches the function type; [break]/[continue] appear in loops. *)

open Ast

exception Error of string * int  (** message, source line *)

type sym = Scalar of ty | Array of ty * int

type fsig = { ret : ty; args : ty list }

type env = {
  globals : (string, sym) Hashtbl.t;
  funcs : (string, fsig) Hashtbl.t;
  locals : (string, (int * sym) list) Hashtbl.t;
      (** per name, its visible local declarations, innermost first, each
          with the depth of the block that declared it *)
  mutable depth : int;  (** of the innermost open block; the body is depth 0 *)
  mutable declared : string list;  (** names the innermost block declared *)
  arrays_declared : (string, unit) Hashtbl.t;
      (** arrays are hoisted to function scope in the IR, so array names
          must be unique per function even across blocks *)
}

let builtins : (string * fsig) list =
  [
    ("print_int", { ret = Tvoid; args = [ Tint ] });
    ("print_float", { ret = Tvoid; args = [ Tfloat ] });
  ]

let fail line fmt = Printf.ksprintf (fun msg -> raise (Error (msg, line))) fmt

let lookup env name =
  match Hashtbl.find_opt env.locals name with
  | Some ((_, sym) :: _) -> Some sym
  | Some [] | None -> Hashtbl.find_opt env.globals name

let declare env line name sym =
  let visible = Option.value ~default:[] (Hashtbl.find_opt env.locals name) in
  (match visible with
  | (depth, _) :: _ when depth = env.depth ->
    fail line "duplicate declaration of '%s' in this scope" name
  | _ -> ());
  Hashtbl.replace env.locals name ((env.depth, sym) :: visible);
  env.declared <- name :: env.declared

(* A block's declarations are undone when it closes. An error abandons the
   whole check, so nothing is undone on the way out. *)
let in_new_scope env f =
  let outer = env.declared in
  env.depth <- env.depth + 1;
  env.declared <- [];
  f ();
  List.iter
    (fun name ->
      match Hashtbl.find env.locals name with
      | [ _ ] -> Hashtbl.remove env.locals name
      | _ :: visible -> Hashtbl.replace env.locals name visible
      | [] -> assert false)
    env.declared;
  env.depth <- env.depth - 1;
  env.declared <- outer

let is_numeric = function Tint | Tfloat -> true | Tvoid -> false

(** [t1] accepts a value of type [t2] (implicit int->float widening only). *)
let compatible ~target ~source =
  match (target, source) with
  | Tint, Tint | Tfloat, Tfloat | Tfloat, Tint -> true
  | _ -> false

let join_numeric line t1 t2 =
  match (t1, t2) with
  | Tfloat, (Tint | Tfloat) | Tint, Tfloat -> Tfloat
  | Tint, Tint -> Tint
  | _ -> fail line "arithmetic on non-numeric operand"

let rec type_of_expr env line (e : expr) : ty =
  match e with
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Var name -> (
    match lookup env name with
    | Some (Scalar ty) -> ty
    | Some (Array _) -> fail line "array '%s' used without an index" name
    | None -> fail line "undeclared variable '%s'" name)
  | Index (name, idx) -> (
    match lookup env name with
    | Some (Array (ty, _)) ->
      let ti = type_of_expr env line idx in
      if ti <> Tint then fail line "array index must be an int";
      ty
    | Some (Scalar _) -> fail line "'%s' is a scalar, not an array" name
    | None -> fail line "undeclared array '%s'" name)
  | Binop (op, a, b) -> (
    let ta = type_of_expr env line a in
    let tb = type_of_expr env line b in
    if not (is_numeric ta && is_numeric tb) then
      fail line "operator '%s' applied to non-numeric operand" (binop_to_string op);
    match op with
    | Add | Sub | Mul | Div -> join_numeric line ta tb
    | Mod | Band | Bor | Bxor | Shl | Shr ->
      if ta <> Tint || tb <> Tint then
        fail line "operator '%s' requires int operands" (binop_to_string op);
      Tint)
  | Rel (op, a, b) ->
    let ta = type_of_expr env line a in
    let tb = type_of_expr env line b in
    if not (is_numeric ta && is_numeric tb) then
      fail line "comparison '%s' applied to non-numeric operand" (relop_to_string op);
    Tint
  | And (a, b) | Or (a, b) ->
    let ta = type_of_expr env line a in
    let tb = type_of_expr env line b in
    if not (is_numeric ta && is_numeric tb) then
      fail line "logical operator applied to non-numeric operand";
    Tint
  | Unop (Neg, a) ->
    let ta = type_of_expr env line a in
    if not (is_numeric ta) then fail line "unary '-' applied to non-numeric operand";
    ta
  | Unop (Lnot, a) ->
    let ta = type_of_expr env line a in
    if not (is_numeric ta) then fail line "'!' applied to non-numeric operand";
    Tint
  | Unop (Bnot, a) ->
    let ta = type_of_expr env line a in
    if ta <> Tint then fail line "'~' requires an int operand";
    Tint
  | Call (name, args) -> (
    match Hashtbl.find_opt env.funcs name with
    | None -> fail line "call to undeclared function '%s'" name
    | Some fsig ->
      let nargs = List.length args and nparams = List.length fsig.args in
      if nargs <> nparams then
        fail line "function '%s' expects %d argument(s), got %d" name nparams nargs;
      List.iter2
        (fun pty arg ->
          let ta = type_of_expr env line arg in
          if not (compatible ~target:pty ~source:ta) then
            fail line "argument of type %s passed where %s expected in call to '%s'"
              (ty_to_string ta) (ty_to_string pty) name)
        fsig.args args;
      fsig.ret)

let check_condition env line e =
  let t = type_of_expr env line e in
  if not (is_numeric t) then fail line "condition must be numeric"

let rec check_stmt env ~ret ~in_loop (s : stmt) =
  let line = s.sline in
  match s.sdesc with
  | Sdecl (ty, name, init) -> (
    if ty = Tvoid then fail line "variable '%s' cannot have type void" name;
    match init with
    | Iscalar None -> declare env line name (Scalar ty)
    | Iscalar (Some e) ->
      let te = type_of_expr env line e in
      if not (compatible ~target:ty ~source:te) then
        fail line "cannot initialise %s '%s' with a %s value" (ty_to_string ty) name
          (ty_to_string te);
      declare env line name (Scalar ty)
    | Iarray size ->
      if size <= 0 then fail line "array '%s' must have positive size" name;
      if Hashtbl.mem env.arrays_declared name then
        fail line "duplicate array '%s' in this function (arrays have function scope)" name;
      Hashtbl.add env.arrays_declared name ();
      declare env line name (Array (ty, size)))
  | Sassign (lv, e) -> (
    let te = type_of_expr env line e in
    match lv with
    | Lvar name -> (
      match lookup env name with
      | Some (Scalar ty) ->
        if not (compatible ~target:ty ~source:te) then
          fail line "cannot assign %s value to %s variable '%s'" (ty_to_string te)
            (ty_to_string ty) name
      | Some (Array _) -> fail line "cannot assign to array '%s' without an index" name
      | None -> fail line "assignment to undeclared variable '%s'" name)
    | Lindex (name, idx) -> (
      match lookup env name with
      | Some (Array (ty, _)) ->
        let ti = type_of_expr env line idx in
        if ti <> Tint then fail line "array index must be an int";
        if not (compatible ~target:ty ~source:te) then
          fail line "cannot store %s value into %s array '%s'" (ty_to_string te)
            (ty_to_string ty) name
      | Some (Scalar _) -> fail line "'%s' is a scalar, not an array" name
      | None -> fail line "store to undeclared array '%s'" name))
  | Sif (cond, then_blk, else_blk) ->
    check_condition env line cond;
    in_new_scope env (fun () -> List.iter (check_stmt env ~ret ~in_loop) then_blk);
    Option.iter
      (fun blk -> in_new_scope env (fun () -> List.iter (check_stmt env ~ret ~in_loop) blk))
      else_blk
  | Swhile (cond, body) ->
    check_condition env line cond;
    in_new_scope env (fun () -> List.iter (check_stmt env ~ret ~in_loop:true) body)
  | Sfor (init, cond, step, body) ->
    (* The for header opens a scope covering condition, step and body. *)
    in_new_scope env (fun () ->
        Option.iter (check_stmt env ~ret ~in_loop) init;
        Option.iter (check_condition env line) cond;
        (* The step runs inside the loop but break/continue cannot occur
           there syntactically (it is a simple statement). *)
        Option.iter (check_stmt env ~ret ~in_loop) step;
        in_new_scope env (fun () -> List.iter (check_stmt env ~ret ~in_loop:true) body))
  | Sreturn None ->
    if ret <> Tvoid then fail line "non-void function must return a value"
  | Sreturn (Some e) ->
    if ret = Tvoid then fail line "void function cannot return a value";
    let te = type_of_expr env line e in
    if not (compatible ~target:ret ~source:te) then
      fail line "returning %s from a function of type %s" (ty_to_string te)
        (ty_to_string ret)
  | Sbreak -> if not in_loop then fail line "'break' outside of a loop"
  | Scontinue -> if not in_loop then fail line "'continue' outside of a loop"
  | Sexpr e -> ignore (type_of_expr env line e)

type tables = {
  global_syms : (string * ty * int option) list;
  signatures : (string * ty * ty list) list;
}

let tables (p : program) =
  {
    global_syms = List.map (fun g -> (g.gname, g.gty, g.gsize)) p.globals;
    signatures = List.map (fun f -> (f.fname, f.fty, List.map (fun p -> p.pty) f.params)) p.funcs;
  }

let check_fn globals funcs f =
  let env =
    {
      globals;
      funcs;
      locals = Hashtbl.create 16;
      depth = 0;
      declared = [];
      arrays_declared = Hashtbl.create 8;
    }
  in
  List.iter
    (fun prm ->
      if prm.pty = Tvoid then fail f.fline "parameter '%s' of '%s' cannot be void" prm.pname f.fname;
      if Hashtbl.mem env.locals prm.pname then
        fail f.fline "duplicate parameter '%s' in '%s'" prm.pname f.fname;
      declare env f.fline prm.pname (Scalar prm.pty))
    f.params;
  List.iter (check_stmt env ~ret:f.fty ~in_loop:false) f.body

(** Check a whole program: the global tables, then every function body, in
    order. With [since = (t, unchanged)], where [t] are the {!tables} of a
    program that checked, and this program's tables equal [t], the bodies
    of the functions for which [unchanged] holds are not checked again: a
    body reads nothing else, so it passes as it did then.
    @raise Error on the first type error found. *)
let check_program ?since (p : program) : unit =
  let globals = Hashtbl.create 16 in
  let funcs = Hashtbl.create 16 in
  List.iter (fun (name, fsig) -> Hashtbl.add funcs name fsig) builtins;
  List.iter
    (fun g ->
      if g.gty = Tvoid then fail g.gline "global '%s' cannot have type void" g.gname;
      if Hashtbl.mem globals g.gname then fail g.gline "duplicate global '%s'" g.gname;
      match g.gsize with
      | None -> Hashtbl.add globals g.gname (Scalar g.gty)
      | Some size ->
        if size <= 0 then fail g.gline "global array '%s' must have positive size" g.gname;
        Hashtbl.add globals g.gname (Array (g.gty, size)))
    p.globals;
  List.iter
    (fun f ->
      if Hashtbl.mem funcs f.fname then fail f.fline "duplicate function '%s'" f.fname;
      Hashtbl.add funcs f.fname { ret = f.fty; args = List.map (fun p -> p.pty) f.params })
    p.funcs;
  let unchanged =
    match since with
    | Some (t, unchanged) when tables p = t -> unchanged
    | Some _ | None -> fun _ -> false
  in
  List.iter (fun f -> if not (unchanged f) then check_fn globals funcs f) p.funcs
