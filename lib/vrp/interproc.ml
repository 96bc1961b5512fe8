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
    lets [Vrp_sched] execute a wave's tasks on a domain pool; a wave of
    one task runs inline. Results, recorded call sites and diagnostics are
    merged in task order, so a parallel run is byte-identical to the
    sequential default. Functions are found through an index built once per
    run, which also holds each function's environment entries and results,
    so a round's bookkeeping is a constant per function and per call site.

    Reuse: like the SCCP/VRP propagation it extends, the driver re-evaluates
    a function only when one of its inputs changed. Each round's result
    records what it was computed from — the parameter values and the
    [(callee, return value)] answers the run read through the call oracle.
    In the next round a function whose parameters and recorded answers are
    all [Value.equal] to the current environments keeps its previous
    {!Engine.t} (physically the same value), and replays its [diags],
    instead of going back through [analyze_fn]. This is exact because the engine is a pure function of
    (function, configuration, parameter values, oracle answers read).
    Likewise a callee whose call sites recorded physically the same
    arguments as at its last merge keeps that merged parameter value.
    A successful task's diagnostics are exactly its result's
    [Engine.t.diags], appended once [analyze_fn] returns; a task that
    raises adds only the seam's own note (a supervisor's deadline) and none
    of its partial ones. *)

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

(* One function of the program in the run's index: its entries in the
   parameter and return environments, its results of this round and the
   previous one, and the call-site arguments recorded for it this round. *)
type slot = {
  fn : Ir.fn;
  bottoms : Value.t list;  (** ⊥ for every parameter *)
  mutable params : Value.t list option;  (** parameter environment entry *)
  mutable ret : Value.t option;  (** return environment entry *)
  mutable prev : (Engine.t * inputs) option;
      (** the previous round's result and what it was computed from *)
  mutable cur : (Engine.t * inputs) option;  (** this round's *)
  mutable failed : bool;
  mutable scheduled : int;  (** the last round that put it in a wave *)
  mutable calls : Value.t list list;  (** this round's jump functions, latest first *)
  mutable merged : (Value.t list list * Value.t list) option;
      (** the last jump functions merged into [params], and the merge *)
}

(* A callee's parameter values: per parameter, the weighted merge of one
   unit-weight entry per recorded call site, latest first. *)
let merge_calls = function
  | [] -> []
  | first :: _ as calls ->
    List.mapi
      (fun i _ -> Value.union_weighted (List.map (fun args -> (1.0, List.nth args i)) calls))
      first

let values_equal a b = List.length a = List.length b && List.for_all2 Value.equal a b

(* Whether an environment entry is unchanged: [next] against [now]. *)
let entry_equal equal next now =
  match (next, now) with
  | None, None -> true
  | Some a, Some b -> equal a b
  | Some _, None | None, Some _ -> false

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
  (* The index: one slot per function name, the first definition winning. *)
  let index : (string, slot) Hashtbl.t = Hashtbl.create 64 in
  let slots =
    List.filter_map
      (fun (fn : Ir.fn) ->
        if Hashtbl.mem index fn.Ir.fname then None
        else
          let s =
            {
              fn;
              bottoms = List.map (fun _ -> Value.bottom) fn.Ir.params;
              params = None;
              ret = None;
              prev = None;
              cur = None;
              failed = false;
              scheduled = 0;
              calls = [];
              merged = None;
            }
          in
          Hashtbl.replace index fn.Ir.fname s;
          Some s)
      program.Ir.fns
  in
  let main =
    match Hashtbl.find_opt index "main" with
    | Some main -> main
    | None -> invalid_arg "Interproc.analyze: program has no main"
  in
  main.params <- Some main.bottoms;
  let failed : (string, string) Hashtbl.t = Hashtbl.create 4 in
  (* The previous round's return environment, read-only during a round, so
     wave tasks may safely share it across domains. *)
  let call_oracle callee _args =
    match Hashtbl.find_opt index callee with
    | Some { ret = Some v; _ } -> v
    | Some { ret = None; _ } | None -> Value.bottom
  in
  let check_cancel name =
    (* Check the deadline between functions too, so it can fire while a
       wave is between engine runs — not only inside a worklist. A deadline
       seen here demotes this function exactly as an in-engine one would. *)
    Option.iter (fun tok -> Diag.Cancel.check tok ~name) config.Engine.cancel
  in
  (* A scheduled function's parameter values, when it is analysable this
     round, with the previous round's result and its record when nothing
     that run read has changed since. The record is kept as it was, so a
     chain of reuses compares against the inputs the result was actually
     computed from. *)
  let plan s =
    match s.params with
    | Some param_values when not s.failed ->
      let reuse =
        match s.prev with
        | Some ((_, prev) as memo)
          when List.equal Value.equal prev.params param_values
               && List.for_all
                    (fun (callee, v) -> Value.equal (call_oracle callee []) v)
                    prev.answers ->
          Some memo
        | _ -> None
      in
      Some (param_values, reuse)
    | _ -> None
  in
  let run_task s () =
    let name = s.fn.Ir.fname in
    Vrp_obs.Metrics.inc tasks_total;
    (* The reuse decision reads only the frozen environments, so it is taken
       before the span opens and the span can carry it. *)
    let step = plan s in
    Vrp_obs.Metrics.time task_seconds @@ fun () ->
    Vrp_obs.Trace.with_span "task"
      ~args:
        (if Vrp_obs.Trace.enabled () then
           [ ("fn", name); ("reused", match step with Some (_, Some _) -> "1" | _ -> "0") ]
         else [])
    @@ fun () ->
    match step with
    | None -> (Skipped, Diag.create ())
    | Some (param_values, reuse) -> (
      let local = Diag.create () in
      match
        check_cancel name;
        match reuse with
        | Some (res, prev) ->
          Vrp_obs.Metrics.inc reused_total;
          Diag.append local res.Engine.diags;
          (Analyzed (res, prev), local)
        | None ->
          let read = ref [] in
          let call_oracle callee args =
            let v = call_oracle callee args in
            if not (List.mem_assoc callee !read) then read := (callee, v) :: !read;
            v
          in
          let res = analyze_fn ~config ~report:(Some local) ~call_oracle ~param_values s.fn in
          Diag.append local res.Engine.diags;
          (Analyzed (res, { params = param_values; answers = !read }), local)
      with
      | r -> r
      | exception e ->
        let why =
          match e with
          | Diag.Fault.Injected msg -> msg
          (* Deterministic reason — no wall-clock numbers — so a deadline
             demotion renders identically at any parallelism. *)
          | Diag.Cancel.Cancelled _ -> "deadline exceeded"
          | e -> Printexc.to_string e
        in
        (Crashed why, local))
  in
  (* A wave of one task runs inline; wider waves go through the seam. *)
  let run_wave = function
    | [| s |] -> [| run_task s () |]
    | wave -> run_tasks (Array.map (fun s -> { fn = s.fn.Ir.fname; run = run_task s }) wave)
  in
  let rounds = ref 0 in
  let continue = ref true in
  (* The functions the latest round analysed, in task order. *)
  let analysed = ref [] in
  while !continue && !rounds < max_rounds do
    incr rounds;
    let round = !rounds in
    Vrp_obs.Metrics.inc rounds_total;
    analysed := [];
    (* Wave 0 is main alone; each subsequent wave is the not-yet-scheduled
       functions called by an executable call site of the preceding waves,
       in first-discovery order. *)
    let wave = ref [| main |] in
    main.scheduled <- round;
    while Array.length !wave > 0 do
      Vrp_obs.Metrics.inc waves_total;
      let results =
        Vrp_obs.Trace.with_span "wave"
          ~args:
            (if Vrp_obs.Trace.enabled () then
               [ ("round", string_of_int round); ("tasks", string_of_int (Array.length !wave)) ]
             else [])
          (fun () -> run_wave !wave)
      in
      (* Merge in task order: results, failures, diagnostics, call records
         and the next frontier are all deterministic. *)
      let frontier = ref [] (* reversed first-discovery order *) in
      Array.iteri
        (fun i (outcome, local) ->
          let s = !wave.(i) in
          Option.iter (fun r -> Diag.merge ~into:r local) report;
          match outcome with
          | Skipped -> ()
          | Crashed why ->
            (* Containment: demote this function, keep the run alive. The
               function stays demoted for the remaining rounds — a crash is
               deterministic for given inputs, and retrying would only
               duplicate the diagnostic. *)
            s.failed <- true;
            Hashtbl.replace failed s.fn.Ir.fname why;
            Option.iter
              (fun r ->
                Diag.add r ~fn:s.fn.Ir.fname Diag.Error Diag.Analysis_crashed
                  (Printf.sprintf "analysis raised (%s); function demoted to heuristics" why))
              report
          | Analyzed (res, used) ->
            s.cur <- Some (res, used);
            analysed := s :: !analysed;
            List.iter
              (fun (_site, (callee, args)) ->
                match Hashtbl.find_opt index callee with
                | None -> () (* builtin *)
                | Some c ->
                  if List.length args = List.length c.bottoms then c.calls <- args :: c.calls;
                  (* make the callee analysable this round if it only just
                     became reachable *)
                  if Option.is_none c.params then c.params <- Some c.bottoms;
                  if c.scheduled <> round then begin
                    c.scheduled <- round;
                    frontier := c :: !frontier
                  end)
              res.Engine.calls_seen)
        results;
      wave := Array.of_list (List.rev !frontier)
    done;
    (* Next round's environments: main's parameters stay ⊥, every other
       function called this round gets its merged jump functions, and every
       function analysed this round its return value. A callee whose call
       sites recorded physically the same arguments as at its last merge
       keeps that merge. *)
    let unchanged = ref true in
    List.iter
      (fun s ->
        let params =
          if s == main then Some main.bottoms
          else
            match s.calls with
            | [] -> None
            | calls -> (
              match s.merged with
              | Some (from, merged) when List.equal ( == ) from calls -> Some merged
              | Some _ | None ->
                let merged = merge_calls calls in
                s.merged <- Some (calls, merged);
                Some merged)
        in
        let ret = Option.map (fun ((res : Engine.t), _) -> res.Engine.return_value) s.cur in
        if not (entry_equal values_equal params s.params && entry_equal Value.equal ret s.ret)
        then unchanged := false;
        s.params <- params;
        s.ret <- ret;
        s.prev <- s.cur;
        s.cur <- None;
        s.calls <- [])
      slots;
    if !unchanged then continue := false
  done;
  let results = Hashtbl.create 16 in
  List.iter
    (fun s -> Option.iter (fun (res, _) -> Hashtbl.replace results s.fn.Ir.fname res) s.prev)
    (List.rev !analysed);
  let param_env = Hashtbl.create 16 and return_env = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Option.iter (Hashtbl.replace param_env s.fn.Ir.fname) s.params;
      Option.iter (Hashtbl.replace return_env s.fn.Ir.fname) s.ret)
    slots;
  { results; failed; param_env; return_env; rounds = !rounds; converged = not !continue }
