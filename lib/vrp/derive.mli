(** Loop-carried expression derivation (paper §3.6): matches a loop-carried
    φ's SSA chain against the induction template
    [new = old ± {increments}; assert(new within bounds)] and produces the
    φ's whole value range — initial value, gcd-of-increments stride, final
    value from the termination assertion (including the first failing value,
    as in the paper's Figure 4). *)

module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Value = Vrp_ranges.Value

type outcome = {
  value : Value.t;
  depends : Var.t list;
      (** variables consulted; the engine re-derives when any changes *)
  even_distribution : bool;
      (** false for geometric inductions: the range hull is sound but the
          even-distribution assumption is not, so branch probabilities on it
          are unreliable *)
}

(** Per-function memo of traced φ chains, built once per engine run and
    reused (keeps each attempt O(chain length)). *)
type ctx

val make_ctx : Vrp_ir.Static.t -> ctx

(** Attempt derivation for φ [phi_var] with arguments [args] in block
    [phi_bid]; [None] when the chain does not match the template. Loops,
    back edges and definition sites come from [static]. *)
val attempt :
  static:Vrp_ir.Static.t ->
  ctx:ctx ->
  values:(Var.t -> Value.t) ->
  symbolic:bool ->
  phi_bid:int ->
  phi_var:Var.t ->
  args:(int * Ir.operand) list ->
  outcome option
