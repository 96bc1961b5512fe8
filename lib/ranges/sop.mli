(** Sum-of-products terms: the symbolic-algebra-v2 normal form.

    A term is [c0 + Σ ci·Πvj] — an integer constant plus a sum of monomials,
    each monomial a product of SSA variables with an integer coefficient.
    This strictly generalises [Sym.t] ([var + const] is the special case of
    one degree-1 monomial with coefficient 1) and is what lets relational
    facts such as [2*i + 1 <= len] or [i < n - 1] survive normalisation
    instead of dying at the first non-unit coefficient.

    Terms are kept in a canonical normal form — monomials sorted (by degree,
    then variable ids), zero coefficients dropped, variables within a
    monomial sorted — so structural equality is semantic equality and the
    qcheck algebra laws (idempotent normalisation, commutative/associative
    add and mul, distribution) hold by construction.

    Magnitudes are capped at [Sym.limit] and degrees at [max_degree]; [mul]
    is partial and returns [None] rather than build a term the prover could
    not reason about soundly. *)

module Var = Vrp_ir.Var

type t

val max_degree : int
(** Largest monomial degree [mul] will build (3). *)

val max_terms : int
(** Largest number of monomials [mul] will build (12). *)

val zero : t
val one : t
val const : int -> t
val of_var : Var.t -> t

val const_value : t -> int option
(** [Some c] iff the term has no monomials. *)

val const_part : t -> int
(** The constant [c0] of any term. *)

val is_const : t -> bool
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t

val scale : int -> t -> t
(** Multiply by an integer constant. *)

val mul : t -> t -> t option
(** Full product; [None] when the result would exceed [max_degree],
    [max_terms], or the [Sym.limit] coefficient cap. *)

val too_big : t -> bool
(** Any coefficient or the constant exceeds [Sym.limit] in magnitude. *)

val cmp : t -> t -> int option
(** [Some c] when the difference of the two terms is a constant (the
    monomials agree), mirroring [Sym.cmp]; [None] otherwise. Relational
    facts between terms whose difference is not constant live in
    {!Alg_env}. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val eval : env:(Var.t -> int) -> t -> int
(** Evaluate under a concrete integer environment — the substitution
    soundness tests drive every algebraic law through this. *)

val vars : t -> Var.t list
(** Distinct variables, sorted. *)

val terms : t -> (Var.t list * int) list
(** All monomials with their coefficients, in canonical order. *)

val leading : t -> (Var.t list * int) option
(** First monomial in the canonical order with its coefficient, [None] for
    constants. The prover eliminates leading monomials against facts. *)

val coeff_of : t -> Var.t list -> int
(** Coefficient of the given (sorted) monomial, 0 when absent. *)

val to_string : t -> string
