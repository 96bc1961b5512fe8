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

(** No AST leaves {!compile}: under a front-end memo its lines may be stale. *)
type compiled = {
  ssa : Ir.program;  (** the canonical SSA program all consumers share *)
  baselines : Predictor.baselines list option;
      (** with a memo, each function's {!Predictor.baselines} in [ssa.fns]
          order, computed with the function or served with it; [None]
          without a memo, where a consumer that renders the columns
          computes them itself *)
  tables : Vrp_lang.Typecheck.tables;  (** for a later {!Vrp_lang.Front.memo} *)
}

(** A per-function compile memo. [memo ast] is applied once per program;
    the function it returns is given each function of [ast] with its
    builder (lower, clean, split critical edges, SSA, {!Vrp_ir.Check},
    then {!Predictor.baselines}) and returns that function's checked SSA
    and baseline columns, built now or reused; a key must not read lines.
    {!Vrp_cache.Summary_cache.compile} is the one implementation. *)
type memo =
  Vrp_lang.Ast.program ->
  Vrp_lang.Ast.func ->
  (unit -> Ir.fn * Predictor.baselines) ->
  Ir.fn * Predictor.baselines

(** Parse ({!Vrp_lang.Front.parse}, one item group at a time) and
    type-check, through the front-end memo [front] when given
    ({!Vrp_lang.Front.parse_and_check}), then run one chain per
    function: lower, clean, split critical edges, convert to SSA and
    validate (trace spans [build-cfg], [ssa], [check-ssa]). With [memo],
    each chain runs only when the memo misses, and also computes the
    function's baseline columns; functions it serves are shared, and no
    consumer may write to them (nor to their columns).
    @raise front-end errors or {!Vrp_ir.Check.Violation}. *)
val compile :
  ?front:Vrp_lang.Front.memo -> ?memo:memo -> string -> compiled

(** Total variant of {!compile}: any front-end error, IR-check violation or
    internal crash becomes a structured [Front_end_error] diagnostic instead
    of an exception. *)
val compile_result :
  ?front:Vrp_lang.Front.memo ->
  ?memo:memo ->
  string ->
  (compiled, Diag.diag) result

(** The branches Ball–Larus predicted: [(fn, block)] -> whether
    the fallback was caused by degradation (a warning: crash, fuel,
    supervisor deadline) rather than an ordinary ⊥ range. *)
type markers = (string * int, bool) Hashtbl.t

(** Branch predictions from interprocedural VRP.

    Totality guarantee: the map has an entry for every conditional branch of
    the program, whatever happens during analysis — unreachable or demoted
    functions fall back to the Ball–Larus heuristics, and a per-function crash or
    fuel exhaustion demotes only that function. With [report], every fallback
    is recorded as a [Fallback_heuristic] diagnostic (warning severity when
    caused by infrastructure degradation), and with [markers], in that
    table.

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
  ?markers:markers ->
  ?run_tasks:Interproc.runner ->
  ?analyze_fn:Interproc.analyze_fn ->
  Ir.program ->
  Predictor.prediction * Interproc.t option

(** A branch's marker in rendered predictions: ["!"] degraded, ["*"]
    ordinary ⊥-range fallback, [""] predicted by VRP. *)
val fallback_marker : markers -> string * int -> string

(** The predictors of the paper's Figures 7/8, keyed by legend name.
    [train] is the profiling predictor's training profile; [report] and
    [markers] collect diagnostics and fallbacks from the full-VRP run, and [config] (default
    {!Engine.default_config}) applies to that run only — "vrp-sym1"
    (symbolic ranges without the v2 sum-of-products algebra) and
    "vrp-numeric" stay the fixed ablations of the paper-§5
    numeric-vs-symbolic-v1-vs-v2 comparison. *)
val all_predictors :
  ?report:Diag.report ->
  ?markers:markers ->
  ?config:Engine.config ->
  train:Vrp_profile.Interp.profile ->
  Ir.program ->
  (string * Predictor.prediction) list
