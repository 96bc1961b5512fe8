(** SSA construction (Cytron et al.) with the paper's branch assertions
    (§3.8): φ placement on iterated dominance frontiers, renaming by a
    dominator-tree walk, and [x' = assert(x rel k)] narrowing copies on both
    successors of every conditional branch. A use whose renaming stack is
    empty denotes a never-assigned path and becomes the constant 0 (MiniC's
    defined semantics). *)

(** Convert one function in place; returns it with the re-versioned
    parameter list. *)
val transform : Ir.fn -> Ir.fn
