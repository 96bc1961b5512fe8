(** End-to-end convenience pipeline shared by the CLI, examples, harness and
    tests: MiniC source → canonical SSA CFG → predictions.

    {!compile} is the one compile path: it compiles each function on its
    own, because VRP analyses each function's SSA form separately and
    passes ranges between functions only at call sites. A one-function edit
    therefore makes only that function's SSA stale, and a {!memo} keyed on
    the function's AST can serve every other function unchanged. *)

module Ir = Vrp_ir.Ir
module Predictor = Vrp_predict.Predictor
module Diag = Vrp_diag.Diag

type compiled = {
  source : string;
  ast : Vrp_lang.Ast.program;
  ssa : Ir.program;  (** the canonical SSA program all consumers share *)
  baselines : Predictor.baselines list option;
      (** with a memo, each function's {!Predictor.baselines} in [ssa.fns]
          order, computed with the function or served with it; [None]
          without a memo, where a consumer that renders the columns
          computes them itself *)
}

(** A per-function compile memo. [memo ast] is applied once per program;
    the function it returns is given each function of [ast] with its
    builder (lower, clean, split critical edges, SSA, {!Vrp_ir.Check},
    then {!Predictor.baselines}) and returns that function's checked SSA
    and baseline columns, built now or reused.
    {!Vrp_cache.Summary_cache.compile} is the one implementation. *)
type memo =
  Vrp_lang.Ast.program ->
  Vrp_lang.Ast.func ->
  (unit -> Ir.fn * Predictor.baselines) ->
  Ir.fn * Predictor.baselines

(** Parse and type-check, then run one chain per function: lower, clean,
    split critical edges, convert to SSA and validate (trace spans
    [build-cfg], [ssa], [check-ssa]). With [memo], each chain runs only
    when the memo misses, and also computes the function's baseline
    columns; functions it serves are shared, and no consumer may write to
    them (nor to their columns).
    @raise front-end errors or {!Vrp_ir.Check.Violation}. *)
val compile : ?memo:memo -> string -> compiled

(** Total variant of {!compile}: any front-end error, IR-check violation or
    internal crash becomes a structured [Front_end_error] diagnostic instead
    of an exception. *)
val compile_result : ?memo:memo -> string -> (compiled, Diag.diag) result

(** What predicts the branches VRP cannot (⊥ ranges, fuel-starved,
    demoted or unreachable functions). [res] is the function's engine
    result when one exists — the hook may mine it for hints (e.g. "range
    known on one side"). The default tier is {!Vrp_predict.Heuristics}'
    Ball–Larus combination; {!Vrp_learn.Infer.fallback} builds the learned
    tier of the ladder VRP → learned → Ball–Larus. *)
type fallback_predictor =
  static:Vrp_ir.Static.t ->
  res:Engine.t option ->
  src:int ->
  Ir.branch ->
  float

(** Branch predictions from interprocedural VRP.

    Totality guarantee: the map has an entry for every conditional branch of
    the program, whatever happens during analysis — unreachable or demoted
    functions fall back to the fallback tier, and a per-function crash or
    fuel exhaustion demotes only that function. With [report], every fallback
    is recorded as a [Fallback_heuristic] diagnostic (warning severity when
    caused by infrastructure degradation).

    [fallback] replaces the Ball–Larus fallback tier (default) on every
    gap VRP leaves — ordinary ⊥-range fallbacks included.

    If the interprocedural driver itself raises (e.g. the program has no
    [main]), every function is analysed intraprocedurally instead, each
    under the same per-function containment, and the second component is
    [None].

    [run_tasks] and [analyze_fn] are the interprocedural driver's
    scheduling and memoization seams (see {!Interproc.analyze}); the
    defaults are sequential, uncached analysis. *)
val vrp_predictions :
  ?config:Engine.config ->
  ?report:Diag.report ->
  ?run_tasks:Interproc.runner ->
  ?analyze_fn:Interproc.analyze_fn ->
  ?fallback:fallback_predictor ->
  Ir.program ->
  Predictor.prediction * Interproc.t option

(** The branches [report] attributes to the fallback tier (its
    [Fallback_heuristic] diagnostics): [(fn, block)] -> whether the
    fallback was caused by degradation (a warning or error: crash, fuel,
    supervisor deadline) rather than an ordinary ⊥ range. *)
val fallback_branches : Diag.report -> (string * int, bool) Hashtbl.t

(** A branch's marker in rendered predictions: ["!"] degraded, ["*"]
    ordinary ⊥-range fallback, [""] predicted by VRP. *)
val fallback_marker : (string * int, bool) Hashtbl.t -> string * int -> string

(** The predictors of the paper's Figures 7/8, keyed by legend name.
    [train] is the profiling predictor's training profile; [report] collects
    diagnostics from the full-VRP run, and [config] (default
    {!Engine.default_config}) applies to that run only — "vrp-sym1"
    (symbolic ranges without the v2 sum-of-products algebra) and
    "vrp-numeric" stay the fixed ablations of the paper-§5
    numeric-vs-symbolic-v1-vs-v2 comparison. With [fallback], a
    "vrp+learned" column (the full-VRP run with the learned fallback tier)
    appears right after "vrp". *)
val all_predictors :
  ?report:Diag.report ->
  ?config:Engine.config ->
  ?fallback:fallback_predictor ->
  train:Vrp_profile.Interp.profile ->
  Ir.program ->
  (string * Predictor.prediction) list
