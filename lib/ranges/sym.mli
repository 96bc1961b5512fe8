(** Symbolic bounds: [SSA variable + constant] (paper §3.4). A bound is a
    plain integer when [base = None]. Arithmetic and comparison are partial:
    [None] means either that the answer needs more than one base variable, or
    that an offset lies beyond the [limit] magnitude cap — [cmp] refuses to
    order same-base bounds once either offset exceeds [limit], because such
    bounds are outside the window where range arithmetic is exact and the
    caller is about to widen them to ⊥ anyway. Relations between different
    base variables ([i < n]) are the symbolic algebra's business
    ([Vrp_core.Alg]), decided after the fixpoint, never here. *)

module Var = Vrp_ir.Var

type t = { base : Var.t option; off : int }

val num : int -> t
val of_var : ?off:int -> Var.t -> t
val is_numeric : t -> bool
val equal : t -> t -> bool
val same_base : t -> t -> bool
val add_const : t -> int -> t
val to_string : t -> string

(** Magnitude cap on offsets; beyond it callers widen to ⊥. *)
val limit : int

val too_big : t -> bool

(** Partial arithmetic: [None] = not representable as [var + const]. *)
val add : t -> t -> t option

(** Subtraction; same-base operands cancel to a numeric result. *)
val sub : t -> t -> t option

(** Partial comparison: [None] = undecidable without the base's value, or
    either offset beyond the [limit] cap. *)
val cmp : t -> t -> int option

(** [comparable a b] iff [cmp a b] is [Some _], without allocating. *)
val comparable : t -> t -> bool

(** Decided comparisons: [None] exactly when [cmp] is [None]. *)
val le : t -> t -> bool option
val lt : t -> t -> bool option
val ge : t -> t -> bool option
val gt : t -> t -> bool option
val min_sym : t -> t -> t option
val max_sym : t -> t -> t option
