(** Uniform interface over the branch predictors: a prediction maps each
    conditional branch — [(function name, block id)] — to the probability of
    taking its true edge. *)

module Ir = Vrp_ir.Ir

type branch_key = string * int

type prediction = (branch_key, float) Hashtbl.t

(** All conditional branches of a program. *)
val branches : Ir.program -> (branch_key * Ir.branch) list

(** The conditional branches of one function, [(block id, branch)] in block
    order. {!branches} lists them function by function in this order. *)
val fn_branches : Ir.fn -> (int * Ir.branch) list

(** One function's baseline columns: the Ball–Larus and the 90/50
    probability of each of its conditional branches, in {!fn_branches}
    order. Unboxed float arrays, small enough to keep with the function's
    compiled SSA. *)
type baselines = { ball_larus : float array; ninety_fifty : float array }

(** Both columns of one function, read from one {!Vrp_ir.Static} record
    (none is built for a function without branches). *)
val baselines : Ir.fn -> baselines

(** The 90/50 rule. *)
val ninety_fifty : Ir.program -> prediction

(** Ball–Larus heuristics, Dempster–Shafer combined. *)
val ball_larus : Ir.program -> prediction

(** [(ball_larus program, ninety_fifty program)] with one {!baselines} pass
    per function. *)
val baseline_predictions : Ir.program -> prediction * prediction

(** Deterministic random baseline. *)
val random : ?seed:int -> Ir.program -> prediction

(** Execution profiling: each branch behaves as in the training run;
    untrained branches fall back to 50/50. *)
val profiling : Vrp_profile.Interp.profile -> Ir.program -> prediction

(** The hypothetical perfect static predictor (paper §5), for harness
    sanity checks. *)
val perfect : Vrp_profile.Interp.profile -> Ir.program -> prediction
