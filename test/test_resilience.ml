(** Resilience-layer tests: per-function fault containment, resource
    governors, and the totality guarantee — with any injected per-function
    fault the pipeline still predicts every conditional branch, the affected
    function degrades to Ball–Larus, sibling functions keep their exact VRP
    predictions, and the degradation is visible in the structured report.
    Also covers the front-end error paths: malformed MiniC must produce
    diagnostics, never exceptions escaping [Pipeline.compile_result]. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Pipeline = Vrp_core.Pipeline
module Diag = Vrp_diag.Diag
module Batch = Vrp_sched.Batch
module Supervisor = Vrp_sched.Supervisor
module Predictor = Vrp_predict.Predictor

let tc = Alcotest.test_case

(* Two functions, both with branches VRP predicts exactly (no heuristic
   fallback in the healthy run): containment tests can check that faulting
   one function leaves the other's predictions bit-identical. *)
let two_fn_src =
  {|
int helper(int k) {
  int acc = 0;
  for (int i = 0; i < 10; i++) { if (i < 7) { acc = acc + 1; } }
  return acc + k;
}
int main(int n, int s) {
  int t = 0;
  for (int x = 0; x < 10; x++) { if (x > 7) { t = t + 1; } }
  return t + helper(n);
}
|}

let all_branches (ssa : Ir.program) =
  List.concat_map
    (fun (fn : Ir.fn) ->
      Array.to_list fn.Ir.blocks
      |> List.filter_map (fun (b : Ir.block) ->
             match b.Ir.term with
             | Ir.Br _ -> Some (fn.Ir.fname, b.Ir.bid)
             | Ir.Jump _ | Ir.Ret _ -> None))
    ssa.Ir.fns

(* The acceptance criterion: a prediction for every conditional branch,
   each a sane probability. *)
let check_total ssa (preds : Predictor.prediction) =
  List.iter
    (fun ((fname, bid) as key) ->
      match Hashtbl.find_opt preds key with
      | Some p ->
        if not (p >= 0.0 && p <= 1.0) then
          Alcotest.failf "%s.B%d: probability %f out of range" fname bid p
      | None -> Alcotest.failf "%s.B%d: no prediction" fname bid)
    (all_branches ssa)

let with_fault fault =
  { Engine.default_config with Engine.fault = Some fault }

let predictions_with ?config src =
  let c = Helpers.compile src in
  let report = Diag.create () in
  let preds, _ = Pipeline.vrp_predictions ?config ~report c.Pipeline.ssa in
  (c.Pipeline.ssa, preds, report)

let healthy_run_is_exact_and_clean () =
  let ssa, preds, report = predictions_with two_fn_src in
  check_total ssa preds;
  Alcotest.(check bool) "not degraded" false (Diag.degraded report);
  Alcotest.(check int) "no crashes" 0 (Diag.count_kind report Diag.Analysis_crashed)

(* Sibling isolation under each per-function fault: [main]'s predictions
   must equal the healthy run's. When [helper_is_bl] (crash: function fully
   demoted) [helper]'s predictions must equal Ball–Larus and its branches
   must carry warning-severity fallback diagnostics. Fuel starvation keeps
   partial results, so there we only require containment + the budget
   diagnostic. *)
let check_containment ~fault ~expect_kind ~helper_is_bl () =
  let ssa0, healthy, _ = predictions_with two_fn_src in
  let ssa, preds, report = predictions_with ~config:(with_fault fault) two_fn_src in
  check_total ssa preds;
  let bl = Predictor.ball_larus ssa in
  List.iter
    (fun ((fname, bid) as key) ->
      let got = Hashtbl.find preds key in
      if String.equal fname "main" then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "main.B%d unchanged" bid)
          (Hashtbl.find healthy key) got
      else if helper_is_bl then
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "helper.B%d falls back to Ball–Larus" bid)
          (Hashtbl.find bl key) got)
    (all_branches ssa0);
  Alcotest.(check bool) "run marked degraded" true (Diag.degraded report);
  Alcotest.(check bool)
    (Printf.sprintf "report has a %s diagnostic" (Diag.kind_to_string expect_kind))
    true
    (Diag.count_kind report expect_kind > 0);
  if helper_is_bl then begin
    (* the affected function's branches carry fallback diagnostics *)
    let helper_fallbacks =
      List.filter
        (fun (d : Diag.diag) ->
          d.Diag.kind = Diag.Fallback_heuristic
          && d.Diag.loc.Diag.fn = Some "helper"
          && d.Diag.severity <> Diag.Info)
        (Diag.to_list report)
    in
    Alcotest.(check bool) "helper branches carry degraded-fallback diags" true
      (List.length helper_fallbacks >= 2)
  end

let crash_contained () =
  check_containment ~fault:(Diag.Fault.Crash_fn "helper")
    ~expect_kind:Diag.Analysis_crashed ~helper_is_bl:true ()

let fuel_starvation_contained () =
  check_containment ~fault:(Diag.Fault.Starve_fuel "helper")
    ~expect_kind:Diag.Budget_exhausted ~helper_is_bl:false ()

let trip_after_still_total () =
  (* tripping after N steps crashes *every* function that gets that far:
     the map must still be total and the run degraded, never an escape *)
  let ssa, preds, report =
    predictions_with ~config:(with_fault (Diag.Fault.Trip_after 3)) two_fn_src
  in
  check_total ssa preds;
  Alcotest.(check bool) "degraded" true (Diag.degraded report);
  Alcotest.(check bool) "crash diagnostics" true
    (Diag.count_kind report Diag.Analysis_crashed > 0)

(* An attempt that raises leaves none of its partial diagnostics:
   [steps:800] trips [main] mid-run, and the report holds the demotion,
   not the widenings the attempt got to before it tripped. There is one
   attempt: a supervisor never retries. *)
let retried_attempts_add_no_partial_diags () =
  let source = In_channel.with_open_bin "corpus/algebra_affine.mc" In_channel.input_all in
  let gave_up () = (Supervisor.counters ()).Supervisor.gave_up in
  let before = gave_up () in
  let config = with_fault (Diag.Fault.Trip_after 800) in
  match Batch.analyze_sources ~config ~jobs:1 [ ("algebra_affine.mc", source) ] with
  | [ r ] ->
    let report = r.Batch.report in
    Alcotest.(check (list (pair string string))) "main demoted"
      [ ("main", "injected trip after 800 steps in main") ]
      r.Batch.demoted;
    Alcotest.(check int) "one attempt gave up" 1 (gave_up () - before);
    Alcotest.(check int) "no partial widenings" 0 (Diag.count_kind report Diag.Widened)
  | _ -> Alcotest.fail "one file in, one result out"

(* --- Resource governors on the engine itself --- *)

let fuel_accounting_explicit () =
  let _, fn = Helpers.compile_main two_fn_src in
  let res = Engine.analyze ~config:(with_fault (Diag.Fault.Starve_fuel "main")) fn in
  Alcotest.(check bool) "exhausted" true res.Engine.fuel_exhausted;
  Alcotest.(check int) "limit recorded" 4 res.Engine.fuel_limit;
  Alcotest.(check int) "spent everything" 4 res.Engine.fuel_spent;
  Alcotest.(check bool) "diagnosed" true
    (Helpers.count_diags res Diag.Budget_exhausted > 0)

let fuel_accounting_healthy () =
  let _, fn = Helpers.compile_main two_fn_src in
  let res = Engine.analyze fn in
  Alcotest.(check bool) "not exhausted" false res.Engine.fuel_exhausted;
  Alcotest.(check bool) "spent some fuel" true (res.Engine.fuel_spent > 0);
  Alcotest.(check bool) "within limit" true (res.Engine.fuel_spent < res.Engine.fuel_limit)

let quota_widening_diagnosed () =
  let _, fn = Helpers.compile_main two_fn_src in
  (* derivation off so the loop φ is actually iterated into the quota *)
  let config =
    { Engine.default_config with Engine.eval_quota = 1; Engine.use_derivation = false }
  in
  let res = Engine.analyze ~config fn in
  Alcotest.(check bool) "widening diagnosed" true
    (Helpers.count_diags res Diag.Widened > 0)

let growth_cap_widening () =
  let _, fn = Helpers.compile_main two_fn_src in
  let res = Engine.analyze ~config:{ Engine.default_config with Engine.max_growth = 0 } fn in
  Alcotest.(check bool) "cap forces widenings" true
    (Helpers.count_diags res Diag.Widened > 0);
  (* the engine still terminates and reports branch predictions *)
  Alcotest.(check bool) "still produced branch probabilities" true
    (Hashtbl.length res.Engine.branch_probs > 0)

(* --- Whole-driver containment --- *)

let no_main_program_degrades () =
  (* no [main]: the interprocedural driver refuses, the pipeline falls back
     to contained per-function analysis, and the map is still total *)
  let src = "int f(int a) { if (a > 0) { return 1; } return 0; }" in
  let c = Helpers.compile src in
  let report = Diag.create () in
  let preds, ipa = Pipeline.vrp_predictions ~report c.Pipeline.ssa in
  Alcotest.(check bool) "no interprocedural result" true (ipa = None);
  check_total c.Pipeline.ssa preds;
  Alcotest.(check bool) "degraded" true (Diag.degraded report)

(* --- Front-end error paths --- *)

let malformed_inputs = [
  ("truncated", "int main(int n, int s) { return");
  ("unbalanced braces", "int main(int n, int s) { if (n > 0) { return 1; return 0; }");
  ("lexical garbage", "int main(int n, int s) { return n @ 2; }");
  ("type error", "int main(int n, int s) { float f = 1.5; int x = f; return x; }");
  ("arity mismatch", "int g(int a) { return a; } int main(int n, int s) { return g(1, 2); }");
  ("unknown variable", "int main(int n, int s) { return zz + 1; }");
]

let front_end_errors_are_diagnostics () =
  List.iter
    (fun (what, src) ->
      match Pipeline.compile_result src with
      | Ok _ -> Alcotest.failf "%s: expected a front-end error" what
      | Error d ->
        Alcotest.(check bool)
          (what ^ " is a front-end-error diagnostic")
          true
          (d.Diag.kind = Diag.Front_end_error && d.Diag.severity = Diag.Error);
        Alcotest.(check bool) (what ^ " has a message") true
          (String.length d.Diag.message > 0)
      | exception e ->
        Alcotest.failf "%s: exception escaped compile_result: %s" what
          (Printexc.to_string e))
    malformed_inputs

let compile_result_ok_on_valid_input () =
  match Pipeline.compile_result two_fn_src with
  | Ok c -> Alcotest.(check bool) "has fns" true (List.length c.Pipeline.ssa.Ir.fns = 2)
  | Error d -> Alcotest.failf "unexpected error: %s" d.Diag.message

(* Every benchmark in the suite stays clean under the healthy pipeline:
   totality without any degradation diagnostics. *)
let suite_benchmarks_not_degraded () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let ssa, preds, report = predictions_with b.Vrp_suite.Suite.source in
      check_total ssa preds;
      if Diag.degraded report then
        Alcotest.failf "%s: healthy run reported degradation:\n%s" b.name
          (Diag.render report))
    Vrp_suite.Suite.benchmarks

let suite =
  ( "resilience",
    [
      tc "healthy run is exact and clean" `Quick healthy_run_is_exact_and_clean;
      tc "crash contained to one function" `Quick crash_contained;
      tc "fuel starvation contained" `Quick fuel_starvation_contained;
      tc "trip-after still total" `Quick trip_after_still_total;
      tc "retried attempts add no partial diagnostics" `Quick
        retried_attempts_add_no_partial_diags;
      tc "explicit fuel accounting" `Quick fuel_accounting_explicit;
      tc "healthy fuel accounting" `Quick fuel_accounting_healthy;
      tc "quota widening diagnosed" `Quick quota_widening_diagnosed;
      tc "growth cap widening" `Quick growth_cap_widening;
      tc "no-main program degrades gracefully" `Quick no_main_program_degrades;
      tc "front-end errors are diagnostics" `Quick front_end_errors_are_diagnostics;
      tc "compile_result ok on valid input" `Quick compile_result_ok_on_valid_input;
      tc "suite benchmarks not degraded" `Slow suite_benchmarks_not_degraded;
    ] )
