(** Wave-parallel interprocedural analysis (see the interface). *)

module Interproc = Vrp_core.Interproc

let runner pool : Interproc.runner =
 fun tasks ->
  Pool.map pool (fun (task : Interproc.task) -> task.run ()) tasks
  |> Array.map (function Ok r -> r | Error e -> raise e)
