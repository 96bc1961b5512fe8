(** Model loading and the learned fallback tier (see the interface). *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Pipeline = Vrp_core.Pipeline

let model_error ~what msg =
  {
    Diag.severity = Diag.Error;
    kind = Diag.Model_error;
    loc = Diag.no_loc;
    message = Printf.sprintf "cannot load model %s: %s" what msg;
  }

let of_string ?(what = "<string>") s : (Tree.t, Diag.diag) result =
  match Tree.of_string s with
  | Error msg -> Error (model_error ~what msg)
  | Ok m ->
    if m.Tree.schema_version <> Features.version || m.Tree.dim <> Features.dim then
      Error
        (model_error ~what
           (Printf.sprintf
              "feature schema mismatch: model has schema %d with %d features, \
               this build wants schema %d with %d"
              m.Tree.schema_version m.Tree.dim Features.version Features.dim))
    else Ok m

let load path : (Tree.t, Diag.diag) result =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> of_string ~what:path s
  | exception Sys_error msg -> Error (model_error ~what:path msg)

(* The committed default model, embedded at build time so every consumer —
   CLI, daemon, evaluation harness — has the learned tier without a file
   path. [models/default.vrpmodel] holds the same bytes; CI's train-smoke
   job re-trains it from the pinned seed and diffs all three. *)
let default =
  lazy
    (match of_string ~what:"<embedded default>" Default_model.data with
    | Ok m -> m
    | Error d -> failwith d.Diag.message)

let prob model ~static ~res ~src (br : Ir.branch) : float =
  Tree.predict model (Features.extract ~static ~res ~src br)

let fallback model : Pipeline.fallback_predictor =
 fun ~static ~res ~src br -> prob model ~static ~res ~src br
