(** Wave parallelism for a single program: plugs the domain pool into the
    interprocedural driver's scheduling seam, so the independent
    per-function tasks of each wave run concurrently within every
    interprocedural round. *)

(** An {!Vrp_core.Interproc.runner} that executes a wave's tasks on the
    pool. A task whose infrastructure raises (the per-function containment
    inside the task never does) is re-raised at the merge point, exactly as
    it would in sequential execution. Results are merged in task order, so
    any pool width is byte-identical to the sequential default. *)
val runner : Pool.t -> Vrp_core.Interproc.runner
