(** Shared CLI/server operation layer (see the interface).

    The rendering code here is the former body of [bin/vrpc.ml]'s
    predict/compare/batch subcommands, lifted into a library so the daemon
    serves byte-identical output. Any format change here changes both
    surfaces at once — which is the point. *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Predictor = Vrp_predict.Predictor
module Interproc = Vrp_core.Interproc
module Interp = Vrp_profile.Interp
module Pool = Vrp_sched.Pool
module Wavefront = Vrp_sched.Wavefront
module Batch = Vrp_sched.Batch
module Supervisor = Vrp_sched.Supervisor
module Summary_cache = Vrp_cache.Summary_cache

type opts = {
  numeric : bool;
  jobs : int;
  diagnostics : bool;
  strict : bool;
  fault : Diag.Fault.t option;
  cancel : Diag.Cancel.token option;
}

let default_opts =
  {
    numeric = false;
    jobs = 1;
    diagnostics = false;
    strict = false;
    fault = None;
    cancel = None;
  }

type outcome = Summary_cache.reply = { out : string; err : string; code : int }

let config_of opts =
  let base = if opts.numeric then Engine.numeric_only_config else Engine.default_config in
  { base with Engine.fault = opts.fault; cancel = opts.cancel }

let front_end_failure d = { out = ""; err = "vrpc: " ^ d.Diag.message ^ "\n"; code = 1 }
let compile_outcome source = Result.map_error front_end_failure (Pipeline.compile_result source)

(* Post-analysis bookkeeping shared by every analysis op: diagnostics
   rendering under --diagnostics and the --strict exit code. *)
let finish ~opts ~report out =
  let err = if opts.diagnostics then Diag.render report else "" in
  let code = if opts.strict && Diag.degraded report then 3 else 0 in
  { out; err; code }

(* --- predict --- *)

let predict_compiled ?pool ?analyze_fn ~opts (c : Pipeline.compiled) =
  let report = Diag.create () in
  let config = config_of opts in
  let markers = Hashtbl.create 16 in
  let run pool =
    Pipeline.vrp_predictions ~config ~report ~markers ~run_tasks:(Wavefront.runner pool)
      ?analyze_fn c.Pipeline.ssa
  in
  let vrp, _ =
    match pool with
    | Some pool -> run pool
    | None -> Pool.with_pool ~jobs:opts.jobs run
  in
  (* The baseline columns and the row text around the VRP cell, one
     function at a time: served with the function by the compile memo, else
     read from one [Static] each. *)
  let baselines =
    match c.Pipeline.baselines with
    | Some b -> b
    | None -> List.map Predictor.baselines c.Pipeline.ssa.Ir.fns
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %9s %12s %8s\n" "branch" "vrp" "ball-larus" "90/50");
  List.iter2
    (fun (fn : Ir.fn) (b : Predictor.baselines) ->
      List.iteri
        (fun i (bid, _) ->
          let key = (fn.Ir.fname, bid) in
          let p = Option.value ~default:Float.nan (Hashtbl.find_opt vrp key) in
          Buffer.add_string buf b.Predictor.labels.(i);
          Buffer.add_string buf
            (Printf.sprintf " %7.1f%%%-1s" (100.0 *. p) (Pipeline.fallback_marker markers key));
          Buffer.add_string buf b.Predictor.cells.(i))
        (Predictor.fn_branches fn))
    c.Pipeline.ssa.Ir.fns baselines;
  if Hashtbl.length markers > 0 then
    Buffer.add_string buf
      "(* = Ball–Larus fallback on ⊥ range, ! = degraded: crashed, \
       fuel-starved or timed-out analysis)\n";
  finish ~opts ~report (Buffer.contents buf)

let predict ?pool ?analyze_fn ~opts ~source () =
  match compile_outcome source with
  | Error o -> o
  | Ok c -> predict_compiled ?pool ?analyze_fn ~opts c

(* --- compare --- *)

let compare_predictors ~opts ~train ~ref_args ~source () =
  match compile_outcome source with
  | Error o -> o
  | Ok c ->
    let report = Diag.create () in
    (* The comparison's full-VRP run historically uses the default (not the
       numeric) configuration — "vrp-numeric" is its own fixed column. *)
    let config =
      { Engine.default_config with Engine.fault = opts.fault; cancel = opts.cancel }
    in
    let train = (Interp.run c.Pipeline.ssa ~args:train).Interp.profile in
    let observed = (Interp.run c.Pipeline.ssa ~args:ref_args).Interp.profile in
    let markers = Hashtbl.create 16 in
    let predictors =
      Pipeline.all_predictors ~report ~markers ~config ~train c.Pipeline.ssa
    in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf (Printf.sprintf "%-24s %8s" "branch" "actual");
    List.iter (fun (name, _) -> Buffer.add_string buf (Printf.sprintf " %12s" name)) predictors;
    Buffer.add_char buf '\n';
    let keys =
      Hashtbl.fold
        (fun key (st : Interp.branch_stats) acc ->
          if st.Interp.total > 0 then (key, st) :: acc else acc)
        observed.Interp.branches []
      |> List.sort compare
    in
    List.iter
      (fun (((fname, bid) as key), (st : Interp.branch_stats)) ->
        let actual = float_of_int st.Interp.taken /. float_of_int st.Interp.total in
        Buffer.add_string buf
          (Printf.sprintf "%-24s %7.1f%%"
             (Printf.sprintf "%s.B%d%s" fname bid (Pipeline.fallback_marker markers key))
             (100.0 *. actual));
        List.iter
          (fun (_, p) ->
            let v = Option.value ~default:Float.nan (Hashtbl.find_opt p key) in
            Buffer.add_string buf (Printf.sprintf " %11.1f%%" (100.0 *. v)))
          predictors;
        Buffer.add_char buf '\n')
      keys;
    List.iter
      (fun (name, p) ->
        let errs = Vrp_evaluation.Error_analysis.branch_errors ~observed p in
        Buffer.add_string buf
          (Printf.sprintf "mean |error| %-12s unweighted %.2f pp, weighted %.2f pp\n" name
             (Vrp_evaluation.Error_analysis.mean_error ~weighted:false errs)
             (Vrp_evaluation.Error_analysis.mean_error ~weighted:true errs)))
      predictors;
    if Hashtbl.length markers > 0 then
      Buffer.add_string buf "(* = vrp used Ball–Larus fallback, ! = degraded analysis)\n";
    finish ~opts ~report (Buffer.contents buf)

(* --- batch --- *)

(* One fault spec, routed to the layer it exercises: the cache writer or
   the analysis engine. *)
let route_fault fault =
  match fault with
  | Some (Diag.Fault.Corrupt_cache _) -> (fault, None)
  | _ -> (None, fault)

let batch ?cache ?within_ms ?deadline ~opts ~sources () =
  let _, engine_fault = route_fault opts.fault in
  let config = { (config_of opts) with Engine.fault = engine_fault } in
  let t0 = Unix.gettimeofday () in
  let results =
    Batch.analyze_sources ~config ?cache ?within_ms ?deadline ~jobs:opts.jobs sources
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  let a = Batch.aggregate results in
  let err = Buffer.create 256 in
  Buffer.add_string err
    (Printf.sprintf
       "analyzed %d files (%d functions, %d branches) in %.3fs with %d job%s (%.1f functions/s)\n"
       a.Batch.files a.Batch.functions a.Batch.branches elapsed opts.jobs
       (if opts.jobs = 1 then "" else "s")
       (if elapsed > 0.0 then float_of_int a.Batch.functions /. elapsed else 0.0));
  if within_ms <> None || deadline <> None then
    Buffer.add_string err (Supervisor.counters_line () ^ "\n");
  Option.iter
    (fun c ->
      Buffer.add_string err (Summary_cache.counters_line (Summary_cache.counters c) ^ "\n"))
    cache;
  if opts.diagnostics then
    List.iter
      (fun (r : Batch.file_result) ->
        if Diag.count r.Batch.report > 0 then begin
          Buffer.add_string err (Printf.sprintf "-- %s --\n" r.Batch.name);
          Buffer.add_string err (Diag.render r.Batch.report)
        end)
      results;
  {
    out = Batch.render results;
    err = Buffer.contents err;
    code = Batch.exit_code ~strict:opts.strict results;
  }
