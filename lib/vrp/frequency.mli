(** Block, edge and function execution-frequency estimation from branch
    probabilities (paper §6, Wu–Larus style): the expected visit counts of
    the Markov chain the probabilities define, solved exactly one natural
    loop and one call-graph SCC at a time, giving the "apply optimizations
    in descending order of execution frequency" ordering the paper
    describes. *)

module Ir = Vrp_ir.Ir

type fn_freq = {
  fn : Ir.fn;
  block_freq : float array;  (** executions per invocation of the function *)
  edge_freq : (int * int, float) Hashtbl.t;
}

type t = {
  per_fn : (string, fn_freq) Hashtbl.t;
  call_freq : (string, float) Hashtbl.t;  (** invocations per run of main *)
}

(** Whole-program frequencies under one prediction (a branch it lacks is
    50/50): [per_fn] and [call_freq] cover the functions reachable from
    [main] in the program's call graph. Exact when every cycle comes back
    with probability below 1; a loop or recursion that would not end has
    its multiplier capped at 1e12.
    @raise Failure on an irreducible CFG, which MiniC never builds. *)
val of_prediction : Ir.program -> Vrp_predict.Predictor.prediction -> t

val global_block_freq : t -> fname:string -> bid:int -> float option

(** [f] rounded to 12 significant digits: order frequencies by this, so
    that two equal in exact arithmetic tie, whatever rounding noise the
    solve left in their last bits. *)
val rank : float -> float

(** All blocks hottest-first by {!rank}, ties by (function, block):
    [(function, block, global frequency)]. *)
val hottest_blocks : t -> (string * int * float) list
