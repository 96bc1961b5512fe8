(** Interprocedural value range propagation (paper §3.7).

    "Interprocedural constant propagation is usually described in terms of a
    set of jump functions associated with each call site ... In our case,
    the jump functions map directly to the range representations for the
    parameters in the call, and the propagation algorithm remains the same.
    In essence, the entire program is treated almost as if it were one huge
    control flow graph."

    Implementation: a round-based whole-program driver. Each round analyses
    every reachable function with (a) parameter ranges = the weighted merge
    of the argument ranges observed at its executable call sites in the
    previous round (the jump functions), and (b) a call oracle that returns
    each callee's merged return range (the return-jump functions, footnote
    3). [main]'s parameters are program input, hence ⊥. Rounds repeat until
    the parameter/return environments stabilise or [max_rounds] is hit —
    recursion makes the environments oscillate at most down to ⊥.

    Scheduling: within a round, functions are analysed in {e waves} — the
    levels of a breadth-first sweep of the executable call graph from
    [main], each level in first-discovery order. Every function in a wave
    reads only the {e previous} round's environments, so the functions of
    one wave are independent: each is one task, and the [run_tasks] seam
    lets [Vrp_sched] execute a wave's tasks on a domain pool. Results,
    recorded call sites and diagnostics are merged in task order, so a
    parallel run is byte-identical to the sequential default.

    Reuse: like the SCCP/VRP propagation it extends, the driver re-evaluates
    a function only when one of its inputs changed. Each round's result
    records what it was computed from — the parameter values and the
    [(callee, return value)] answers the run read through the call oracle
    — and the diagnostics it emitted. In the next round a function whose
    parameters and recorded answers are all [Value.equal] to the current
    environments keeps its previous {!Engine.t} (physically the same
    value), and its diagnostics are replayed, instead of going back through
    [analyze_fn]. This is exact because the engine is a pure function of
    (function, configuration, parameter values, oracle answers read).
    A task's diagnostics are the seam's notes (a supervisor's retries)
    then the result's [Engine.t.diags], appended once [analyze_fn]
    returns: an attempt that raises adds none of its partial ones. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Diag = Vrp_diag.Diag

type t = {
  results : (string, Engine.t) Hashtbl.t;  (** per reachable function *)
  failed : (string, string) Hashtbl.t;
      (** functions whose analysis raised, with the reason: demoted to the
          heuristic predictor by the pipeline, never re-analysed this run *)
  param_env : (string, Value.t list) Hashtbl.t;
  return_env : (string, Value.t) Hashtbl.t;
  rounds : int;  (** rounds actually executed *)
  converged : bool;
      (** the environments stabilised before [max_rounds]; when false, the
          final environments are one step ahead of the ones [results] were
          computed against, and membership claims must not be trusted
          end-to-end (the fuzzing oracles skip such programs) *)
}

(** What one function's result was computed from: its parameter values
    and the [(callee, return value)] answers its run read through the call
    oracle. *)
type inputs = { params : Value.t list; answers : (string * Value.t) list }

(** Per-function analysis outcome inside one wave. [Skipped] marks a
    function that was scheduled but not analysable (no parameter
    environment, or demoted in an earlier round). *)
type outcome = Analyzed of Engine.t * inputs | Crashed of string | Skipped

(** One schedulable unit: one function of a wave. [run] is pure with
    respect to shared driver state — it reads the previous round's
    environments only — so the tasks of one wave may execute concurrently.
    The function comes back with a private diagnostics report, merged by
    the driver in task order. *)
type task = { fn : string; run : unit -> outcome * Diag.report }

(** The scheduler seam: execute a wave of independent tasks and return
    their results {e in task order}. The default runs them sequentially in
    the calling domain. *)
type runner = task array -> (outcome * Diag.report) array

(** The per-function analysis seam: [Vrp_cache] interposes a memoizing
    wrapper here. The default is {!Engine.analyze}. *)
type analyze_fn =
  config:Engine.config ->
  report:Diag.report option ->
  call_oracle:(string -> Value.t list -> Value.t) ->
  param_values:Value.t list ->
  Ir.fn ->
  Engine.t

let result t fname = Hashtbl.find_opt t.results fname

let failure t fname = Hashtbl.find_opt t.failed fname

let default_max_rounds = 5

let sequential_runner : runner = Array.map (fun task -> task.run ())

(* Scheduler-level observability: rounds/waves/tasks counted in the metrics
   registry, per-task durations in a histogram. Ticked by the driver (not
   the runner) so sequential and pooled execution report identically. *)
let rounds_total =
  Vrp_obs.Metrics.counter ~help:"Interprocedural propagation rounds"
    "vrp_interproc_rounds_total"

let waves_total =
  Vrp_obs.Metrics.counter ~help:"Scheduler waves of independent tasks"
    "vrp_sched_waves_total"

let tasks_total =
  Vrp_obs.Metrics.counter ~help:"Scheduler tasks executed"
    "vrp_sched_tasks_total"

let task_seconds =
  Vrp_obs.Metrics.histogram ~help:"Scheduler task duration in seconds"
    "vrp_sched_task_seconds"

let reused_total =
  Vrp_obs.Metrics.counter
    ~help:"Function results reused from the previous round without an engine run"
    "vrp_interproc_reused_total"

let default_analyze_fn : analyze_fn =
 fun ~config ~report:_ ~call_oracle ~param_values fn ->
  Engine.analyze ~config ~call_oracle ~param_values fn

let env_equal (a : (string, Value.t list) Hashtbl.t) (b : (string, Value.t list) Hashtbl.t) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold
       (fun name vs acc ->
         acc
         &&
         match Hashtbl.find_opt b name with
         | Some vs' -> List.length vs = List.length vs' && List.for_all2 Value.equal vs vs'
         | None -> false)
       a true

(* Sorted key list of a string-keyed table: environment rebuilds iterate in
   canonical order so runs are reproducible whatever the hash layout. *)
let sorted_keys tbl =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

(** Whole-program analysis, entered at [main]. Per-function fault
    containment: a function whose analysis raises (divergence guard,
    injected fault, internal bug) is recorded in [failed] with an
    [Analysis_crashed] diagnostic and excluded from the environments — the
    rest of the program is still analysed, and the pipeline demotes just
    that function to the heuristic predictor. Containment composes with the
    scheduler: a crash inside a pooled task demotes only that function. *)
let analyze ?(config = Engine.default_config) ?report
    ?(max_rounds = default_max_rounds) ?(run_tasks = sequential_runner)
    ?(analyze_fn = default_analyze_fn)
    (program : Ir.program) : t =
  let param_env : (string, Value.t list) Hashtbl.t = Hashtbl.create 16 in
  let return_env : (string, Value.t) Hashtbl.t = Hashtbl.create 16 in
  let failed : (string, string) Hashtbl.t = Hashtbl.create 4 in
  (match Ir.find_fn program "main" with
  | Some main ->
    Hashtbl.replace param_env "main" (List.map (fun _ -> Value.bottom) main.Ir.params)
  | None -> invalid_arg "Interproc.analyze: program has no main");
  let results = ref (Hashtbl.create 16) in
  (* What each of [!results] was computed from, with the diagnostics its
     run emitted: the previous round only. *)
  let inputs : (string, inputs * Diag.report) Hashtbl.t ref = ref (Hashtbl.create 16) in
  (* Most runs emit no diagnostics: they share this report, read-only,
     instead of each keeping an empty one alive for a round. *)
  let no_diags = Diag.create () in
  let rounds = ref 0 in
  let continue = ref true in
  while !continue && !rounds < max_rounds do
    incr rounds;
    Vrp_obs.Metrics.inc rounds_total;
    let round_results = Hashtbl.create 16 in
    let round_inputs = Hashtbl.create 16 in
    (* Executable (callee, args) records of this round, in deterministic
       discovery order — the jump functions for the next round. *)
    let recorded : (string * Value.t list) list ref = ref [] in
    (* Functions already scheduled into some wave this round. *)
    let done_fns : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    (* Previous-round environments are read-only for the whole round, so
       wave tasks may safely share them across domains. *)
    let call_oracle callee _args =
      match Hashtbl.find_opt return_env callee with
      | Some v -> v
      | None -> Value.bottom
    in
    (* A scheduled function's IR and parameter values, when it is
       analysable this round, with the previous round's result and its
       record when nothing that run read has changed since. The record is
       kept as it was, so a chain of reuses compares against the inputs the
       result was actually computed from. *)
    let plan name =
      match (Ir.find_fn program name, Hashtbl.find_opt param_env name) with
      | Some fn, Some param_values when not (Hashtbl.mem failed name) ->
        let reuse =
          match (Hashtbl.find_opt !inputs name, Hashtbl.find_opt !results name) with
          | Some ((prev, _) as memo), Some (res : Engine.t)
            when List.equal Value.equal prev.params param_values
                 && List.for_all
                      (fun (callee, v) -> Value.equal (call_oracle callee []) v)
                      prev.answers ->
            Some (res, memo)
          | _ -> None
        in
        Some (fn, param_values, reuse)
      | _ -> None
    in
    let make_task name =
      {
        fn = name;
        run =
          (fun () ->
            Vrp_obs.Metrics.inc tasks_total;
            (* The reuse decision reads only the frozen tables, so it is
               taken before the span opens and the span can carry it. *)
            let step = plan name in
            let reused = match step with Some (_, _, Some _) -> 1 | _ -> 0 in
            Vrp_obs.Metrics.time task_seconds @@ fun () ->
            Vrp_obs.Trace.with_span "task"
              ~args:[ ("fn", name); ("reused", string_of_int reused) ]
            @@ fun () ->
            let local = Diag.create () in
            match step with
            | Some (fn, param_values, reuse) -> (
              match
                (* Beat the cancellation token between functions too, so a
                   deadline can fire while a wave is between engine runs —
                   not only inside a worklist. A token cancelled here
                   demotes this function exactly as an in-engine
                   cancellation would. *)
                let () =
                  Option.iter
                    (fun tok ->
                      Diag.Cancel.beat tok;
                      Diag.Cancel.check tok ~name)
                    config.Engine.cancel
                in
                match reuse with
                | Some (res, (prev, diags)) ->
                  Vrp_obs.Metrics.inc reused_total;
                  Diag.merge ~into:local diags;
                  (res, prev)
                | None ->
                  let read = ref [] in
                  let call_oracle callee args =
                    let v = call_oracle callee args in
                    if not (List.mem_assoc callee !read) then read := (callee, v) :: !read;
                    v
                  in
                  let res =
                    analyze_fn ~config ~report:(Some local) ~call_oracle ~param_values fn
                  in
                  Diag.append local res.Engine.diags;
                  (res, { params = param_values; answers = !read })
              with
              | res, used -> (Analyzed (res, used), local)
              | exception e ->
                let why =
                  match e with
                  | Diag.Fault.Injected msg -> msg
                  (* Deterministic reason — no wall-clock numbers — so a
                     deadline demotion renders identically at any
                     parallelism. *)
                  | Diag.Cancel.Cancelled _ -> "deadline exceeded"
                  | e -> Printexc.to_string e
                in
                (Crashed why, local))
            | None -> (Skipped, local));
      }
    in
    (* Wave 0 is main alone; each subsequent wave is the not-yet-scheduled
       functions called by an executable call site of the preceding waves,
       in first-discovery order. *)
    let wave = ref [ "main" ] in
    Hashtbl.replace done_fns "main" ();
    while !wave <> [] do
      Vrp_obs.Metrics.inc waves_total;
      let tasks = Array.of_list (List.map make_task !wave) in
      let task_results =
        Vrp_obs.Trace.with_span "wave"
          ~args:
            [
              ("round", string_of_int !rounds);
              ("tasks", string_of_int (Array.length tasks));
            ]
          (fun () -> run_tasks tasks)
      in
      (* Merge in task order: results, failures, diagnostics, call records
         and the next frontier are all deterministic. *)
      let frontier = ref [] (* reversed first-discovery order *) in
      Array.iteri
        (fun i (outcome, local) ->
          let name = tasks.(i).fn in
          (match report with
          | Some r -> Diag.merge ~into:r local
          | None -> ());
          match outcome with
          | Skipped -> ()
          | Crashed why ->
            (* Containment: demote this function, keep the run alive. The
               function stays demoted for the remaining rounds — a crash is
               deterministic for given inputs, and retrying would only
               duplicate the diagnostic. *)
            Hashtbl.replace failed name why;
            (match report with
            | Some r ->
              Diag.add r ~fn:name Diag.Error Diag.Analysis_crashed
                (Printf.sprintf "analysis raised (%s); function demoted to heuristics" why)
            | None -> ())
          | Analyzed (res, used) ->
            Hashtbl.replace round_results name res;
            Hashtbl.replace round_inputs name
              (used, if Diag.count local = 0 then no_diags else local);
            List.iter
              (fun (_site, (callee, args)) ->
                match Ir.find_fn program callee with
                | None -> () (* builtin *)
                | Some cfn ->
                  if List.length args = List.length cfn.Ir.params then
                    recorded := (callee, args) :: !recorded;
                  if not (Hashtbl.mem param_env callee) then
                    (* make the callee analysable this round if it only
                       just became reachable *)
                    Hashtbl.replace param_env callee
                      (List.map (fun _ -> Value.bottom) cfn.Ir.params);
                  if not (Hashtbl.mem done_fns callee) then begin
                    Hashtbl.replace done_fns callee ();
                    frontier := callee :: !frontier
                  end)
              res.Engine.calls_seen)
        task_results;
      wave := List.rev !frontier
    done;
    (* Build next round's environments from the recorded jump functions.
       Contributions are accumulated per parameter in record order (one
       weighted entry per executable call site). *)
    let next_params : (string, (float * Value.t) list array) Hashtbl.t =
      Hashtbl.create 16
    in
    List.iter
      (fun (callee, args) ->
        let arr =
          match Hashtbl.find_opt next_params callee with
          | Some arr -> arr
          | None ->
            let arr = Array.make (List.length args) [] in
            Hashtbl.replace next_params callee arr;
            arr
        in
        List.iteri (fun i v -> arr.(i) <- (1.0, v) :: arr.(i)) args)
      (List.rev !recorded);
    let new_param_env = Hashtbl.create 16 in
    (match Ir.find_fn program "main" with
    | Some main ->
      Hashtbl.replace new_param_env "main"
        (List.map (fun _ -> Value.bottom) main.Ir.params)
    | None -> ());
    List.iter
      (fun callee ->
        if callee <> "main" then
          let arr = Hashtbl.find next_params callee in
          Hashtbl.replace new_param_env callee
            (Array.to_list (Array.map Value.union_weighted arr)))
      (sorted_keys next_params);
    let new_return_env = Hashtbl.create 16 in
    List.iter
      (fun name ->
        let res : Engine.t = Hashtbl.find round_results name in
        Hashtbl.replace new_return_env name res.Engine.return_value)
      (sorted_keys round_results);
    let ret_equal =
      Hashtbl.length new_return_env = Hashtbl.length return_env
      && Hashtbl.fold
           (fun name v acc ->
             acc
             &&
             match Hashtbl.find_opt return_env name with
             | Some v' -> Value.equal v v'
             | None -> false)
           new_return_env true
    in
    let params_equal = env_equal new_param_env param_env in
    results := round_results;
    inputs := round_inputs;
    Hashtbl.reset param_env;
    Hashtbl.iter (Hashtbl.replace param_env) new_param_env;
    Hashtbl.reset return_env;
    Hashtbl.iter (Hashtbl.replace return_env) new_return_env;
    if params_equal && ret_equal then continue := false
  done;
  {
    results = !results;
    failed;
    param_env;
    return_env;
    rounds = !rounds;
    converged = not !continue;
  }
