(** Natural-loop detection: back edges (edges to a dominator) and loop
    bodies, innermost first. Feeds the Ball–Larus heuristics, the 90/50
    rule and the VRP derivation step. *)

module IntSet : Set.S with type elt = int

type loop = {
  header : int;
  body : IntSet.t;  (** includes the header *)
  latches : int list;
}

type t = {
  loops : loop array;
  loop_of_block : int option array;  (** innermost loop index per block *)
  back_edges : (int * int) list;  (** (latch, header) *)
}

(** Natural loops of a function, given its dominator tree. *)
val compute : Ir.fn -> Dom.t -> t

val in_loop : t -> int -> bool
val is_loop_header : t -> int -> bool

(** Does [src -> dst] leave the innermost loop containing [src]? *)
val is_loop_exit_edge : t -> src:int -> dst:int -> bool

(** Innermost loop containing a block, if any. *)
val innermost : t -> int -> loop option
