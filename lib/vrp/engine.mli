(** The value range propagation engine (paper §3.3): a Wegman–Zadeck-style
    two-worklist sparse propagator over weighted value ranges, with loop
    derivation, branch assertions, heuristic fallback and edge
    probabilities. See the implementation header for the full algorithm
    description and the termination safety-valve. *)

module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Value = Vrp_ranges.Value
module Diag = Vrp_diag.Diag

type config = {
  symbolic : bool;  (** track symbolic ranges (paper's full configuration) *)
  use_assertions : bool;  (** narrow through branch assertions *)
  use_derivation : bool;  (** derive loop-carried φs instead of iterating *)
  algebra : bool;
      (** symbolic algebra v2 ({!Alg}): sum-of-products facts from
          assertions, SSA equations and converged ranges feed a
          post-fixpoint pass proving fallback branches one-way (and, in
          {!Bounds_check}, index bounds). The fixpoint itself never
          consults the facts, so ranges are byte-identical to v1 and v2
          strictly adds proofs. Only effective with [symbolic] *)
  eval_quota : int;  (** per-variable value changes before widening to ⊥ *)
  trip_prior : float;  (** assumed back-edge/entry frequency ratio at φs *)
  flow_first : bool;  (** prefer the FlowWorkList (paper §3.3 step 2) *)
  max_growth : int;  (** per-variable range-set size cap before widening *)
  fault : Diag.Fault.t option;  (** deterministic fault injection *)
  cancel : Diag.Cancel.token option;
      (** the run's deadline, if any: checked once per worklist step,
          raising {!Diag.Cancel.Cancelled} once it has passed; [None] means
          no deadline and no check. Non-semantic (not in the cache's
          configuration digest) *)
}

val default_config : config

(** The paper's "numeric ranges only" configuration (Figures 7/8). *)
val numeric_only_config : config

(** Analysis result for one function. *)
type t = {
  fn : Ir.fn;
  values : Value.t array;  (** final output assignment, indexed by var id *)
  branch_probs : (int, float) Hashtbl.t;  (** block id -> P(true edge) *)
  branch_fallback : (int, bool) Hashtbl.t;  (** branch used heuristics *)
  visited : bool array;  (** executable blocks *)
  evaluations : int;  (** expression evaluations (Figure 5 metric) *)
  calls_seen : ((int * int) * (string * Value.t list)) list;
      (** executable call sites (block, index) with latest argument values *)
  return_value : Value.t;  (** merged over executable returns *)
  fuel_limit : int;
      (** the step budget this run was given: [max 100_000 (200 × size)],
          or a handful of steps under the [fuel:FN] fault *)
  fuel_spent : int;  (** worklist steps actually taken *)
  fuel_exhausted : bool;  (** ran out of fuel before the fixed point *)
  diags : Diag.diag list;
      (** the run's diagnostics in emission order: forced widenings to ⊥
          (quota / growth cap), fuel exhaustion, algebraic one-way proofs,
          injected faults. Callers append them to their own report, so an
          engine run, a summary-cache hit and a reused round all replay
          the same list *)
}

val value : t -> Var.t -> Value.t
val branch_prob : t -> int -> float option
val used_fallback : t -> int -> bool

(** Analyse one function. [param_values] are the formal parameters' ranges
    (⊥ by default = unknown program input); [call_oracle] supplies return
    ranges for calls (⊥ by default — the intraprocedural setting). The
    run's diagnostics come back in the result's [diags]; a run that raises
    emits none.
    @raise Diag.Fault.Injected under crash fault injection. *)
val analyze :
  ?config:config ->
  ?call_oracle:(string -> Value.t list -> Value.t) ->
  ?param_values:Value.t list ->
  Ir.fn ->
  t
