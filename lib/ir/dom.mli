(** Dominator trees and dominance frontiers (Cooper–Harvey–Kennedy), plus
    postdominators via the reversed CFG. *)

type t = {
  idom : int array;  (** immediate dominator; [-1] for the root/unreachable *)
  rpo_index : int array;  (** reverse-postorder position; [-1] if unreachable *)
  children : int list array;  (** dominator-tree children *)
  root : int;
  pre : int array;
      (** preorder number in the dominator forest (the tree of [root] plus
          one single-node tree per unreachable node) *)
  last : int array;  (** largest preorder number in the node's subtree *)
}

(** Reverse postorder of the nodes reachable from [root]. *)
val reverse_postorder : nblocks:int -> succs:(int -> int list) -> root:int -> int array

(** Graph-generic driver (used for both directions). *)
val compute_generic :
  nblocks:int -> succs:(int -> int list) -> preds:(int -> int list) -> root:int -> t

(** Dominator tree of a function (root = entry block). *)
val compute : Ir.fn -> t

(** Reflexive dominance, in O(1): [a] dominates a reachable [b] when [b]'s
    preorder number lies in [a]'s subtree interval [\[pre, last\]]. *)
val dominates : t -> int -> int -> bool

val strictly_dominates : t -> int -> int -> bool

(** Dominance frontiers (Cytron et al.), for φ placement. *)
val frontiers : Ir.fn -> t -> int list array

(** Postdominator tree over the reversed CFG with a virtual exit node (id
    [num_blocks fn]). *)
val compute_post : Ir.fn -> t

(** [postdominates pt a b]: every path from [b] to exit passes through [a]
    (use with a tree from {!compute_post}). *)
val postdominates : t -> int -> int -> bool
