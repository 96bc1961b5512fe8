(** Type checker for MiniC: declaration-before-use with lexical scoping,
    numeric arithmetic with implicit [int -> float] widening, integer-only
    [%]/bitwise/shift operators, arity- and type-checked calls, placement
    checks for [return]/[break]/[continue]. *)

(** (message, source line) *)
exception Error of string * int

type sym = Scalar of Ast.ty | Array of Ast.ty * int

type fsig = { ret : Ast.ty; args : Ast.ty list }

(** Built-in functions ([print_int], [print_float]). *)
val builtins : (string * fsig) list

(** What every function body is checked against: the globals (name, type,
    array size) and every function's name, return type and parameter
    types, in program order. Compare with [=]. *)
type tables

val tables : Ast.program -> tables

(** Check the global tables (globals, duplicate names, signatures), then
    every function body in order. With [since = (t, unchanged)], where [t]
    are the tables of an earlier program that checked, and [tables p = t],
    the body of each function [f] with [unchanged f] is not checked: the
    caller asserts it is the body that checked then, so it checks now.
    The first error is the one a check without [since] raises.
    @raise Error on the first type error found. *)
val check_program : ?since:tables * (Ast.func -> bool) -> Ast.program -> unit
