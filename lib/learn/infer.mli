(** Model loading and the learned fallback tier.

    Loading is total: a missing, corrupt, truncated or schema-mismatched
    [.vrpmodel] file becomes a structured [Model_error] diagnostic, never an
    exception, so consumers can degrade cleanly to Ball–Larus. *)

module Diag = Vrp_diag.Diag

(** Parse model bytes (checksum, format and feature-schema verified).
    [what] names the source in the diagnostic (default ["<string>"]). *)
val of_string : ?what:string -> string -> (Tree.t, Diag.diag) result

(** Read and parse a [.vrpmodel] file. I/O errors are [Model_error]s too. *)
val load : string -> (Tree.t, Diag.diag) result

(** The committed default model, embedded at build time
    (a dune rule generates it from [models/default.vrpmodel]).
    @raise Failure if the embedded bytes are corrupt — a build error, not a
    runtime condition. *)
val default : Tree.t Lazy.t

(** Predicted taken-probability for one branch VRP left to the fallback
    tier. [res] is the function's engine result when one exists (feeds the
    range-known hints); [src] the branch's source block id. *)
val prob :
  Tree.t ->
  static:Vrp_ir.Static.t ->
  res:Vrp_core.Engine.t option ->
  src:int ->
  Vrp_ir.Ir.branch ->
  float

(** The learned tier of the ladder VRP → learned → Ball–Larus, in the shape
    {!Vrp_core.Pipeline.vrp_predictions} expects. *)
val fallback : Tree.t -> Vrp_core.Pipeline.fallback_predictor
