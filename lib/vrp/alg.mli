(** Per-function algebraic context: the bridge between the SSA IR and the
    {!Vrp_ranges.Alg_env} fact environment (symbolic algebra v2).

    [make] walks a function's {!Vrp_ir.Static} record once and collects
    - {e equations}: for every integer SSA definition built from affine
      material (copies, add/sub, mul/shl by constants, negation, assertion
      identities), a memoized expansion of the variable into a {!Vrp_ranges.Sop}
      polynomial over "atom" variables (φ-nodes, parameters, loads, calls);
    - {e assertion facts}: every e-SSA [Assertion {parent; arel; abound}]
      contributes [parent arel abound] over expanded operands, scoped to the
      assertion's block — the fact only holds where that block dominates.

    The context then answers relational queries two ways:
    - [decide_branch] decides a branch's relation at a given block —
      used by the engine's post-fixpoint pass to upgrade fallback branches
      to proved one-way predictions.
    - [prove_index_bounds] proves [0 <= index < size] for an array access —
      used by [Bounds_check] to eliminate checks whose index algebra
      ([a\[2*i+1\]], [a\[n-i-1\]]) is invisible to v1 [var + const] bounds.

    [add_range_facts] harvests the engine's {e post-fixpoint} value ranges
    (numeric or single-base symbolic bounds per variable) into additional
    facts for the two provers above. It must only be called on converged
    results — mid-propagation ranges are transient and unsound to cite. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value

type t

val make : Vrp_ir.Static.t -> t
(** A scoped fact is admitted at a block iff its home block dominates it
    in the function's dominator tree. *)

val add_range_facts : t -> values:Value.t array -> unit
(** Fold converged per-variable ranges into the fact set and re-refine. *)

val decide_branch :
  t -> bid:int -> Vrp_lang.Ast.relop -> Ir.operand -> Ir.operand -> bool option

val prove_index_bounds : t -> bid:int -> size:int -> Ir.operand -> bool * bool
(** [(lower_proved, upper_proved)] for [0 <= index] and [index <= size-1]. *)

val to_string : t -> string
(** Render the fact environment (diagnostics and tests). *)
