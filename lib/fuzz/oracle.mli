(** Soundness oracles: the six checkable properties relating static
    analysis claims to concrete interpreter behaviour.

    The interpreter is the ground truth. {!check} compiles one program,
    runs the full static pipeline (interprocedural VRP, SCCP, bounds-check
    elimination), then executes the program under {!Vrp_profile.Interp}'s
    observation hook for several argument vectors and compares every
    event against the static claims:

    - {b Range soundness} — every runtime value of every SSA definition
      lies within its inferred range (symbolic ranges are conservatively
      treated as containing; an executed definition the analysis claims
      unreachable is a violation).
    - {b Constant soundness} — every variable SCCP proves a constant
      equals that constant at runtime.
    - {b Bounds safety} — no access whose check was [provably_safe]
      is ever out of bounds.
    - {b Prediction consistency} — a branch VRP proves one-way
      (probability exactly 0.0 or 1.0, no fallback) never takes the
      other edge.
    - {b Frequency conservation} ({!check_conservation}) — solved under
      a run's own branch ratios, frequencies equal that run's counts.
    - {b Determinism} ({!check_determinism}) — parallel, cache-hit and
      file-record batch runs render byte-identically to sequential.

    Membership-style oracles (range / bounds / prediction) are only armed
    when the static results are trustworthy end to end: the
    interprocedural driver converged, no function was demoted, and no
    analysis exhausted fuel. Otherwise the documented
    contracts already waive the claims, so checking them would only
    produce false positives. The constant oracle is unconditional (SCCP is
    intraprocedural and treats parameters and loads as ⊥), and so is
    frequency conservation, which reads no VRP result.

    Runtime traps (division by zero, out-of-bounds access, step budget)
    are benign: events observed before the trap are still checked, but a
    trapped run's counts are partial and conservation skips it. *)

module Engine = Vrp_core.Engine

type property =
  | Well_formed
      (** the pipeline or interpreter itself failed on a generated program *)
  | Range_soundness
  | Constant_soundness
  | Bounds_safety
  | Prediction_consistency
  | Determinism
  | Algebra_refinement
      (** the sum-of-products algebra weakened a claim the v1 analysis
          made: a range loosened, a one-way branch un-proved, or a
          bounds-check elimination lost (see {!check_algebra}) *)
  | Frequency_conservation
      (** {!Vrp_core.Frequency.of_prediction} under
          {!Vrp_predict.Predictor.profiling} of a run's own profile missed
          an executed block's count or a function's invocations by more
          than 1e-9 relative; flow conservation makes the solve exact *)

val property_name : property -> string

type violation = { prop : property; vfn : string; detail : string }

val violation_to_string : violation -> string

(** Is [n] certainly a member of the value? ⊥ contains everything, ⊤
    nothing, symbolic ranges conservatively everything. This is the
    membership relation of the range-soundness oracle and of the
    lattice-law property tests (member-set semantics). *)
val value_contains : Vrp_ranges.Value.t -> int -> bool

type outcome = {
  violations : violation list;  (** deduplicated per site, capped *)
  trapped : bool;  (** some run trapped (benign, events still checked) *)
  membership_checked : bool;
      (** static results were trusted end to end, so the range, bounds and
          prediction oracles were armed *)
}

(** Check one program against the five execution oracles. [args_list]
    (default {!Gen.main_args}) are the [main] argument vectors, padded or
    truncated to [main]'s arity. *)
val check :
  ?config:Engine.config -> ?args_list:int list list -> string -> outcome

(** Frequency conservation on one run of [main] on [args], which {!check}
    applies to each run that does not trap.
    @raise Vrp_profile.Interp.Trap when the run traps. *)
val check_conservation : Vrp_ir.Ir.program -> args:int list -> violation list

(** Check the differential-determinism property for one [(name, source)]
    program: sequential vs [--jobs 4], cold vs warm memory cache, and a
    disk cache before and after reopening (the reopened one serves the
    file record) must all render byte-identical batch reports. Uses a
    temporary cache directory, removed before returning. *)
val check_determinism :
  ?config:Engine.config -> name:string -> string -> violation list

(** Differential refinement check for the sum-of-products algebra: analyse
    the program with [algebra] off and on (everything else from [config]),
    and require that switching it on only refines — inferred ranges only
    tighten (checked decidably over a probe grid, v2-⊥ vacuous), branches
    proven one-way stay proven with the same direction, and per-site
    bounds-check eliminations only grow. Returns [(armed, violations)]:
    [armed] is false (and the list empty) when either side failed to
    converge end to end, in which case an exhausted budget — not the
    algebra — would explain any difference. *)
val check_algebra : ?config:Engine.config -> string -> bool * violation list
