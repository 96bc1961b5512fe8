(** Grammar fuzzer: random well-typed MiniC programs.

    A real expression/statement generator over the {!Vrp_lang.Ast} grammar,
    richer than [Synth.generate]'s fixed shape mix but parameterised by the
    same {!Vrp_suite.Synth.weights} table so the two generators cannot
    drift. Programs are constructed to be accepted by the type checker and
    to terminate: every [for] loop has literal bounds and a positive
    literal stride, every [while] loop counts a dedicated variable down by
    a literal, loop counters are never targets of random assignments, and
    functions only call previously generated functions (no recursion).
    Runtime traps (division by zero, out-of-bounds indices) are possible
    but deliberately rare. Deterministic in the PRNG state. *)

module Ast = Vrp_lang.Ast

(** A named weight profile for {!program}. *)
type profile = { pname : string; weights : Vrp_suite.Synth.weights }

(** The fuzzing profiles of the CLI and CI: [mixed], [loops], [branches],
    [arrays], [calls], [features] (branch-shape diversity: many
    conditionals among loops and array traffic), plus [affine] — guarded affine
    index patterns ([2*i+1], [size-1-i], [x+c]) only the sum-of-products
    algebra can discharge. *)
val profiles : profile list

val profile_named : string -> profile option

(** Generate one program. *)
val program : Vrp_util.Prng.t -> weights:Vrp_suite.Synth.weights -> Ast.program

(** [main] argument vectors the oracles drive each program with. *)
val main_args : int list list

(** Random numeric {!Vrp_ranges.Value.t} (including occasional ⊤/⊥) for
    the lattice-law property tests. *)
val value : Vrp_util.Prng.t -> Vrp_ranges.Value.t
