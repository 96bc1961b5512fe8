(** Every static CFG fact of one function, computed once.

    The engine, the derivation step, the algebraic fact context and the
    heuristic predictors all read this record; none of them builds its own
    dominator tree, loop nest or definition table. The record is immutable
    once built. *)

type t = {
  fn : Ir.fn;
  dom : Dom.t;  (** dominator tree, rooted at the entry block *)
  postdom : Dom.t;  (** postdominator tree ({!Dom.compute_post}) *)
  loops : Loops.t;  (** natural loops of [dom] *)
  rpo : int array;  (** reverse postorder of the reachable blocks *)
  instrs : Ir.instr array array;  (** block id -> its instructions *)
  succs : int array array;
      (** block id -> [Ir.successors] of its terminator. The edge
          [src -> dst] lives in {e slot} [k] of [src]: the first [k] with
          [succs.(src).(k) = dst], so a [Br] whose targets coincide has one
          edge. *)
  back : bool array array;
      (** block id -> per slot: is the edge a back edge (its target
          dominates its source) *)
  def_block : int array;  (** var id -> defining block; [-1] for parameters *)
  def_idx : int array;  (** var id -> index of its definition in the block *)
}

val of_fn : Ir.fn -> t

(** Slot of the edge [src -> dst], or [-1] when there is no such edge. *)
val slot : t -> int -> int -> int

(** Is [src -> dst] an edge to a dominator of [src]? *)
val is_back_edge : t -> src:int -> dst:int -> bool

(** Right-hand side defining a variable; [None] for parameters. *)
val def : t -> Var.t -> Ir.rhs option
