(** Finite arithmetic progressions — the numeric skeleton of the paper's
    ranges. [(lo, hi, stride)] denotes [{lo, lo+stride, ..., hi}], with
    [stride = 0] iff the progression is a singleton. All counting is exact
    integer mathematics except the probability of an order comparison
    between two very large progressions, which uses a continuous-uniform
    closed form (error O(1/min(n_a, n_b))). *)

type t = { lo : int; hi : int; stride : int }

(** Normalising constructor: clamps [hi] down onto the progression and
    canonicalises singletons to stride 0.
    @raise Invalid_argument if [hi < lo]. *)
val make : int -> int -> int -> t

val singleton : int -> t

(** Number of elements. *)
val count : t -> int

val is_singleton : t -> bool
val mem : int -> t -> bool

(** gcd treating 0 as the identity, so strides combine correctly. *)
val gcd_stride : int -> int -> int

(** Number of elements strictly below (resp. at most) a value. *)
val count_below : t -> int -> int

val count_at_most : t -> int -> int

(** Exact size of the intersection of two progressions (CRT). *)
val count_common : t -> t -> int

(** The intersection itself: the (unique) progression of common elements,
    [None] when disjoint. *)
val inter : t -> t -> t option

(** Exact P(u = v) for independent uniform draws u ∈ a, v ∈ b. *)
val prob_eq : t -> t -> float

(** P(u < v); exact when the smaller progression has at most {!exact_cap}
    elements, continuous-uniform approximation beyond. *)
val prob_lt : t -> t -> float

val exact_cap : int

(** P(u rel v) for any comparison operator. *)
val prob_rel : Vrp_lang.Ast.relop -> t -> t -> float
