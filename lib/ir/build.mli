(** Lowering from the MiniC AST to the CFG IR: expression flattening to
    three-address code, short-circuit control flow, implicit zero
    initialisation, global scalars as memory, CFG cleanup and critical-edge
    splitting. See the implementation header for the full list of
    conventions the rest of the pipeline relies on. *)

exception Lower_error of string

(** What lowering one function reads of its program: every callable
    function's return type (builtins included) and the global tables. *)
type env

val env : Vrp_lang.Ast.program -> env

(** The program's globals in declaration order, scalars as size-1 arrays:
    the [global_arrays] of the lowered program. *)
val globals : env -> Ir.array_info list

(** Lower one type-checked function to a CFG, before {!cleanup} and
    {!split_critical_edges}. The result depends only on the function and
    [env]: no IR carries a source line. *)
val lower_fn : env -> Vrp_lang.Ast.func -> Ir.fn

(** Drop unreachable blocks and renumber densely (preserving φ argument
    consistency). *)
val cleanup : Ir.fn -> Ir.fn

(** Ensure each successor of a conditional branch has exactly one
    predecessor (gives assertions a unique edge to guard). *)
val split_critical_edges : Ir.fn -> Ir.fn
