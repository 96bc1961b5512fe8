(** The 90/50 rule and the Ball–Larus heuristic set with Wu–Larus hit-rate
    probabilities — the paper's baselines and its fallback for branches
    whose value range is ⊥. Each heuristic returns [Some p] (probability of
    the true edge) when it applies. See the implementation header for how
    "backward branch" is interpreted structurally and why the pointer
    heuristic is absent in MiniC. *)

module Ir = Vrp_ir.Ir
module Static = Vrp_ir.Static

(** Wu–Larus hit rates. *)
val lbh_prob : float

val leh_prob : float
val lhh_prob : float
val ch_prob : float
val oh_prob : float
val gh_prob : float
val sh_prob : float
val rh_prob : float

(** The individual heuristics (exposed for testing and ablation). *)
val loop_branch : Static.t -> src:int -> Ir.branch -> float option

val loop_exit : Static.t -> src:int -> Ir.branch -> float option
val loop_header : Static.t -> src:int -> Ir.branch -> float option
val call : Static.t -> src:int -> Ir.branch -> float option
val opcode : Static.t -> src:int -> Ir.branch -> float option
val guard : Static.t -> src:int -> Ir.branch -> float option
val store : Static.t -> src:int -> Ir.branch -> float option
val return : Static.t -> src:int -> Ir.branch -> float option

(** Dempster–Shafer combination of every applicable heuristic. *)
val ball_larus : Static.t -> src:int -> Ir.branch -> float

(** The 90/50 rule: structurally-backward branches 90%, else 50/50. *)
val ninety_fifty : Static.t -> src:int -> Ir.branch -> float
