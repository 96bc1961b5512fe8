(** Reference interpreter and execution profiler: executes the canonical SSA
    CFG directly, so observed branch behaviour attaches to exactly the
    branch identities the static predictors annotate. Stands in for the
    paper's instrumented SPEC binaries. *)

module Ir = Vrp_ir.Ir

type value = Vint of int | Vfloat of float

(** Runtime traps: division by zero, out-of-bounds access, step-budget
    exhaustion, arity mismatches. *)
exception Trap of string

type branch_stats = { mutable taken : int; mutable total : int }

type profile = {
  branches : (string * int, branch_stats) Hashtbl.t;
      (** per conditional branch: (function, block) -> outcome counts *)
  edges : (string * int * int, int) Hashtbl.t;
      (** per CFG edge traversal counts *)
  mutable steps : int;  (** executed instructions *)
}

val fresh_profile : unit -> profile
val branch_stats : profile -> string * int -> branch_stats option

(** Observed P(taken), if the branch executed. *)
val observed_prob : profile -> string * int -> float option

type result = { ret : value; profile : profile; output : string }

(** Observation events, streamed to the optional [?observe] hook of {!run}
    as execution proceeds. This is the dynamic half of the soundness
    oracles in [Fuzz.Oracle]: every typed write point, call boundary,
    branch outcome and array access is surfaced, so a checker can compare
    concrete behaviour against static results without re-implementing the
    interpreter. Events are delivered {e before} any trap the observed
    operation may raise (an out-of-bounds access is reported, then
    trapped), and values are reported after coercion to the static type —
    the same value the interpreter stores. *)
type event =
  | Ev_enter of { fn : string; args : value list }
      (** function entry; [args] are the actual parameters after coercion *)
  | Ev_def of { fn : string; var : Vrp_ir.Var.t; value : value }
      (** an SSA definition was written (parameters and φs included) *)
  | Ev_return of { fn : string; value : value }
      (** function exit with its (coerced) return value *)
  | Ev_branch of { fn : string; block : int; taken : bool }
      (** a conditional branch executed *)
  | Ev_access of {
      fn : string;
      block : int;
      instr : int;  (** index of the access in [block]'s instruction list *)
      array : string;
      index : int;
      size : int;
      is_store : bool;
    }  (** an array access is about to execute (possibly out of bounds) *)

(** Interpret [main] on integer arguments. [max_steps] bounds the run
    (default 50M); [capture_output] collects [print_*] output; [observe]
    receives {!event}s as they happen (default: none, zero overhead).
    @raise Trap on runtime errors. *)
val run :
  ?max_steps:int ->
  ?capture_output:bool ->
  ?observe:(event -> unit) ->
  Ir.program ->
  args:int list ->
  result
