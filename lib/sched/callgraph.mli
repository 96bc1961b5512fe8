(** Static call graph of an SSA program: which defined functions each
    function may call. The daemon's session planner walks it to find the
    functions downstream of an edit. *)

module Ir = Vrp_ir.Ir

type t

val build : Ir.program -> t

(** Functions [name] may call, restricted to functions defined in the
    program, sorted and deduplicated. *)
val callees : t -> string -> string list
