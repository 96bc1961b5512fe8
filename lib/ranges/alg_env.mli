(** Algebraic fact environment for symbolic algebra v2.

    Holds relational facts between {!Sop} terms — [s <= t], [s < t],
    [s = t] — learned from branch assertions, SSA def equations, and
    post-fixpoint value ranges. Internally every fact is a single shape:
    a term known to be non-negative ([s <= t] is stored as [t - s >= 0],
    [s < t] as [t - s - 1 >= 0], [s = t] as both directions), which makes
    entailment a linear-combination search (Fourier–Motzkin-style leading-
    monomial elimination, Futhark [SoP/AlgEnv]-flavoured).

    {b Scoping.} A fact learned from an assertion only holds where the
    assertion's definition dominates; each fact carries the block ids it
    depends on, and queries pass an [admit] predicate that filters facts by
    scope (the engine admits a fact iff every scope block dominates the
    query point). Facts with no scopes are unconditional.

    {b Monotonicity.} [add_*] appends, [refine] derives bounded pairwise
    combinations without ever evicting direct facts, and the prover's search
    is capped by depth only — so adding a fact can never un-decide a
    previously decided query (pinned by a qcheck law in [test_ranges.ml]).

    {b Soundness caps.} Facts and goals with any coefficient beyond
    [coeff_cap] are ignored by the prover: all linear combinations then stay
    far from native-int overflow, so a decided answer is exact. *)

type t

val empty : t

val coeff_cap : int
(** Magnitude cap on fact/goal coefficients admitted by the prover. *)

val fact_cap : int
(** Maximum number of direct facts retained (further adds are dropped). *)

val derived_cap : int
(** Maximum number of derived facts [refine] will accumulate. *)

val tame : Sop.t -> bool
(** Inside the prover's window: every coefficient within [coeff_cap] and
    the constant within [Sym.limit]. Untame polynomials are ignored by the
    prover and should not be built into expansions (producers clamp back
    to an opaque atom instead, so coefficient arithmetic can never wrap). *)

val add_le : ?scope:int -> t -> Sop.t -> Sop.t -> t
(** [add_le env s t] records [s <= t]. *)

val add_lt : ?scope:int -> t -> Sop.t -> Sop.t -> t
val add_eq : ?scope:int -> t -> Sop.t -> Sop.t -> t

val add_nonneg : ?scope:int -> t -> Sop.t -> t
(** Record [s >= 0] directly. *)

val refine : t -> t
(** Bounded closure: derive pairwise eliminations of the direct facts and
    append them (never evicting anything), so later queries chain through
    fewer prover steps. Idempotent on already-refined environments. *)

val prove_nonneg : ?admit:(int -> bool) -> t -> Sop.t -> bool
(** [prove_nonneg env s] — is [s >= 0] entailed by the admitted facts?
    [false] means "could not prove", never "disproved". *)

val decide :
  ?admit:(int -> bool) -> t -> Vrp_lang.Ast.relop -> Sop.t -> Sop.t -> bool option
(** [decide env rel a b] — three-valued truth of [a rel b] under the
    admitted facts. *)

val to_string : t -> string
