(** The operation layer shared by the one-shot CLI ([vrpc predict] /
    [compare] / [batch]) and the analysis server ([vrpd]).

    Each operation renders to an {!outcome} — captured stdout bytes,
    captured stderr bytes and the would-be process exit code — instead of
    printing and exiting. The CLI prints the outcome and exits with its
    code; the server ships it over the wire. Because both run {e this}
    code, a server response is byte-identical to the one-shot CLI output
    by construction — the correctness contract the server tests pin.

    Exit-code policy (documented in [vrpc --help], pinned by tests):
    [0] success; [1] bad input program or internal analysis error;
    [2] usage error, failed batch file, or a contained server request
    crash; [3] analysis degraded under [--strict]. *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interproc = Vrp_core.Interproc

type opts = {
  numeric : bool;  (** the paper's numeric-only configuration *)
  jobs : int;  (** analysis parallelism (byte-identical at any width) *)
  diagnostics : bool;  (** render the structured report into [err] *)
  strict : bool;  (** exit 3 when the analysis degraded *)
  fault : Diag.Fault.t option;  (** deterministic fault injection *)
  cancel : Diag.Cancel.token option;
      (** the request's deadline, if it has one: the engine worklist and
          the interprocedural wave driver both check it *)
}

(** [jobs = 1], everything else off. *)
val default_opts : opts

type outcome = Vrp_cache.Summary_cache.reply = {
  out : string;  (** stdout bytes — the deterministic, pinned surface *)
  err : string;  (** stderr bytes — counters and timing, may vary *)
  code : int;  (** process exit code *)
}

(** The engine configuration an [opts] denotes (numeric/fault/cancel). *)
val config_of : opts -> Engine.config

(** The CLI's exit-1 outcome for a front-end failure ([vrpc: MESSAGE] on
    stderr). *)
val front_end_failure : Diag.diag -> outcome

(** [vrpc predict]: the three-predictor branch-probability table with
    fallback markers. [pool] reuses a resident domain pool (the server's);
    otherwise a transient pool of [opts.jobs] is used. [analyze_fn] is the
    memoization seam — pass a {!Vrp_cache.Summary_cache.memoized} wrapper
    to serve unchanged functions from a warm cache. *)
val predict :
  ?pool:Vrp_sched.Pool.t ->
  ?analyze_fn:Interproc.analyze_fn ->
  opts:opts ->
  source:string ->
  unit ->
  outcome

(** {!predict} for an already-compiled program (the server compiles once to
    plan incremental invalidation, then analyses the same program). *)
val predict_compiled :
  ?pool:Vrp_sched.Pool.t ->
  ?analyze_fn:Interproc.analyze_fn ->
  opts:opts ->
  Pipeline.compiled ->
  outcome

(** [vrpc compare]: every predictor against observed branch behaviour on
    the reference input, with mean-error summary lines. *)
val compare_predictors :
  opts:opts -> train:int list -> ref_args:int list -> source:string -> unit -> outcome

(** Split one fault spec into [(cache, engine)] faults, routing it to the
    layer it exercises — shared by the CLI and the server. *)
val route_fault : Diag.Fault.t option -> Diag.Fault.t option * Diag.Fault.t option

(** [vrpc batch] over in-memory [(name, source)] pairs: the deterministic
    report on [out], timing and cache counters on [err] — and the
    supervision counters when a deadline is set — exit code from
    {!Vrp_sched.Batch.exit_code}. Each function's deadline is the tighter
    of [within_ms] from its start and [deadline] (see
    {!Vrp_sched.Batch.analyze_sources}). The caller builds (and owns) the
    optional cache — the server shares its resident one across requests. *)
val batch :
  ?cache:Vrp_cache.Summary_cache.t ->
  ?within_ms:int ->
  ?deadline:float ->
  opts:opts ->
  sources:(string * string) list ->
  unit ->
  outcome
