(** IR well-formedness and SSA invariant checking (variable ids in
    [\[0, nvars)], single assignment, φ-arity = predecessors, uses dominated
    by definitions, branch targets single-predecessor). *)

exception Violation of string

(** Structural checks only (ids dense, targets in range, preds caches). *)
val check_structure : Ir.fn -> unit

(** Full SSA validation.
    @raise Violation describing the first broken invariant. *)
val check_ssa_fn : Ir.fn -> unit
