(** Abstract syntax for MiniC, the source language of the reproduction.

    MiniC is a small C-like imperative language with integer and float
    scalars, fixed-size arrays, functions and structured control flow. It is
    the stand-in for the C subset the paper's compiler consumed; it keeps
    exactly the constructs value range propagation cares about (arithmetic on
    scalars, comparisons controlling branches, counted and data-dependent
    loops, array loads that defeat static analysis, calls that carry ranges
    interprocedurally). *)

type ty = Tint | Tfloat | Tvoid

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Band
  | Bor
  | Bxor
  | Shl
  | Shr

type relop = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Lnot | Bnot

type expr =
  | Int of int
  | Float of float
  | Var of string
  | Index of string * expr
  | Binop of binop * expr * expr
  | Rel of relop * expr * expr
  | And of expr * expr  (** short-circuit, yields 0/1 *)
  | Or of expr * expr  (** short-circuit, yields 0/1 *)
  | Unop of unop * expr
  | Call of string * expr list

type lvalue = Lvar of string | Lindex of string * expr

(** Statements carry the source line they started on, for diagnostics. *)
type stmt = { sline : int; sdesc : stmt_desc }

and stmt_desc =
  | Sdecl of ty * string * decl_init
  | Sassign of lvalue * expr
  | Sif of expr * block * block option
  | Swhile of expr * block
  | Sfor of stmt option * expr option * stmt option * block
      (** [for (init; cond; step) body]; [init]/[step] are simple statements *)
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sexpr of expr

and block = stmt list

and decl_init =
  | Iscalar of expr option  (** [int x;] or [int x = e;] *)
  | Iarray of int  (** [int a[n];] with constant size *)

type param = { pty : ty; pname : string }

type func = {
  fty : ty;
  fname : string;
  params : param list;
  body : block;
  fline : int;
}

(** Globals are modelled as memory (size-1 arrays for scalars) so that, as in
    the paper, every load from them yields an unknown range. *)
type global = {
  gty : ty;
  gname : string;
  gsize : int option;  (** [None] for scalars *)
  gline : int;
}

type program = { globals : global list; funcs : func list }

let ty_to_string = function Tint -> "int" | Tfloat -> "float" | Tvoid -> "void"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"

let relop_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let unop_to_string = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

(** Negation of a comparison operator: [not (a op b) = a (negate op) b]. *)
let relop_negate = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** Mirror image of a comparison: [a op b = b (swap op) a]. *)
let relop_swap = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
