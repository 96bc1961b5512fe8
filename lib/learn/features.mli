(** Static per-branch feature vectors for the learned fallback predictor:
    the Ball–Larus signal set (comparison kind, operand classes, loop
    position, guard shape, successor postdominance, call/store/return
    content, array context) plus VRP-derived hints ("range known on one
    side"). All features are small non-negative integers. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine

(** Schema version, serialized into every model; bumped on any change to
    {!names} or the encoding. A model refuses to load against a different
    schema. *)
val version : int

(** Feature names, in vector order. *)
val names : string array

val dim : int

(** The feature vector (length {!dim}) of the branch terminating block
    [src]. [res] is the function's engine result when one exists — it feeds
    only the range-known hint features; pass [None] for a purely static
    vector (demoted or unreachable functions). *)
val extract :
  static:Vrp_ir.Static.t -> res:Engine.t option -> src:int -> Ir.branch -> int array
