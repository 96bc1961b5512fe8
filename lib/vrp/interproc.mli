(** Interprocedural value range propagation (paper §3.7): a round-based
    whole-program driver where jump functions are the argument ranges
    observed at executable call sites and return-jump functions flow callee
    return ranges back. Within a round, functions are analysed in waves —
    the breadth-first levels of the executable call graph from [main], in
    first-discovery order — one task per function; the tasks of a wave are
    independent, which is the scheduling seam the [Vrp_sched] domain pool
    plugs into (a wave of one task runs inline). A function
    whose parameter values and the callee return values its last run read
    are unchanged since the previous round keeps that round's result (and
    replays its diagnostics) instead of being re-analysed. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Diag = Vrp_diag.Diag

type t = {
  results : (string, Engine.t) Hashtbl.t;  (** per reachable function *)
  failed : (string, string) Hashtbl.t;
      (** functions whose analysis raised, with the reason: demoted to the
          heuristic predictor by the pipeline *)
  param_env : (string, Value.t list) Hashtbl.t;
  return_env : (string, Value.t) Hashtbl.t;
  rounds : int;  (** rounds actually executed *)
  converged : bool;
      (** environments stabilised before the round cap; when false the
          final environments are one step ahead of [results] and
          membership claims must not be trusted end-to-end *)
}

val result : t -> string -> Engine.t option

(** Why a function was demoted, if its analysis crashed. *)
val failure : t -> string -> string option

val default_max_rounds : int

(** What one function's result was computed from: its parameter values
    and the [(callee, return value)] answers its run read through the call
    oracle. *)
type inputs = { params : Value.t list; answers : (string * Value.t) list }

(** Per-function analysis outcome inside one wave. *)
type outcome = Analyzed of Engine.t * inputs | Crashed of string | Skipped

(** One schedulable unit: one function of a wave. [run] reads only the
    previous round's environments, so the tasks of one wave may execute
    concurrently. *)
type task = { fn : string; run : unit -> outcome * Diag.report }

(** The scheduler seam: execute a wave of independent tasks, returning
    results in task order. The default is sequential in-domain execution. *)
type runner = task array -> (outcome * Diag.report) array

val sequential_runner : runner

(** The per-function analysis seam; [Vrp_cache] interposes a memoizing
    wrapper here. The default is {!Engine.analyze}. [report] takes the
    seam's own note when the call raises (a deadline); {!analyze} appends
    the result's [diags] once the call returns, so a raising call adds
    none of its partial ones. *)
type analyze_fn =
  config:Engine.config ->
  report:Diag.report option ->
  call_oracle:(string -> Value.t list -> Value.t) ->
  param_values:Value.t list ->
  Ir.fn ->
  Engine.t

val default_analyze_fn : analyze_fn

(** Whole-program analysis entered at [main], with per-function fault
    containment: a function whose analysis raises is recorded in [failed]
    (and in [report] as [Analysis_crashed]) instead of aborting the run —
    also under a parallel [run_tasks], where a crash inside a pooled task
    demotes only that function. Results and diagnostics are merged in task
    order, so the output is byte-identical whatever [run_tasks]
    parallelism executes the waves.
    @raise Invalid_argument if the program has no [main]. *)
val analyze :
  ?config:Engine.config ->
  ?report:Diag.report ->
  ?max_rounds:int ->
  ?run_tasks:runner ->
  ?analyze_fn:analyze_fn ->
  Ir.program ->
  t
