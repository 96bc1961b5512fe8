(** Task supervision: deadlines (see the interface). *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Ir = Vrp_ir.Ir
module Interproc = Vrp_core.Interproc
module Metrics = Vrp_obs.Metrics

type counters = { deadline_hits : int; gave_up : int }

let hits =
  Metrics.counter ~help:"Supervised tasks cancelled by deadline" "vrp_sched_deadline_hits_total"

let gave_up = Metrics.counter ~help:"Supervised tasks that failed" "vrp_sched_gave_up_total"

let counters () = { deadline_hits = Metrics.value hits; gave_up = Metrics.value gave_up }

let counters_line () =
  let c = counters () in
  Printf.sprintf "supervision: %d deadline hit(s), %d task(s) gave up" c.deadline_hits
    c.gave_up

let within_ms ms = Unix.gettimeofday () +. (float_of_int ms /. 1000.)

let tighter a b =
  match (a, b) with
  | Some a, Some b -> Some (Float.min a b)
  | (Some _ as d), None | None, d -> d

let supervise ~name ?report deadline f =
  let token = Option.map (fun deadline -> Diag.Cancel.make ~deadline) deadline in
  let count_hit () =
    match token with
    | Some t when Diag.Cancel.cancelled t -> Metrics.inc hits
    | _ -> ()
  in
  match f token with
  | v ->
    count_hit ();
    v
  | exception e ->
    (* Deterministic message: never include wall-clock measurements, so
       reports stay byte-identical across jobs counts and machine load. *)
    (match (e, report) with
    | Diag.Cancel.Cancelled _, Some r ->
      Diag.add r ~fn:name Diag.Warning Diag.Deadline_exceeded
        (Printf.sprintf "deadline exceeded in %s; analysis cancelled" name)
    | _ -> ());
    count_hit ();
    Metrics.inc gave_up;
    raise e

let wrap_analyze_fn ?within_ms:ms ?deadline (inner : Interproc.analyze_fn) :
    Interproc.analyze_fn =
 fun ~config ~report ~call_oracle ~param_values fn ->
  let deadline = tighter (Option.map within_ms ms) deadline in
  supervise ~name:fn.Ir.fname ?report deadline (fun token ->
      let config = if Option.is_none token then config else { config with Engine.cancel = token } in
      inner ~config ~report ~call_oracle ~param_values fn)
