(** Whole-pipeline integration tests over the benchmark suite, including
    the two global soundness properties that tie the static analysis to the
    dynamic semantics:

    - {b certainty soundness}: a branch VRP predicts with probability
      exactly 0 or 1 (without heuristic fallback) must behave exactly that
      way in every execution;
    - {b return soundness}: analysing [main] with its concrete arguments as
      singleton parameter ranges must yield a return range containing the
      actually returned value.

    Plus the paper's headline shape claims over the measured figures and the
    linearity of the propagator. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Interp = Vrp_profile.Interp
module Value = Vrp_ranges.Value

let tc = Alcotest.test_case

let all_benchmarks_compile_run_analyze () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let c = Helpers.compile b.source in
      let ssa = c.Vrp_core.Pipeline.ssa in
      List.iter Vrp_ir.Check.check_ssa_fn ssa.Ir.fns;
      (* both inputs execute without trapping *)
      let train = Interp.run ssa ~args:b.train_args in
      let ref_ = Interp.run ssa ~args:b.ref_args in
      ignore (Helpers.ret_int train);
      ignore (Helpers.ret_int ref_);
      (* interprocedural analysis completes *)
      let ipa = Vrp_core.Interproc.analyze ssa in
      Alcotest.(check bool)
        (b.name ^ ": main analysed")
        true
        (Vrp_core.Interproc.result ipa "main" <> None))
    Vrp_suite.Suite.benchmarks

let synth_programs_compile_run_analyze () =
  List.iter
    (fun units ->
      let src = Vrp_suite.Synth.generate ~units ~seed:(units * 13) () in
      let c = Helpers.compile src in
      List.iter Vrp_ir.Check.check_ssa_fn c.Vrp_core.Pipeline.ssa.Ir.fns;
      let r = Interp.run c.Vrp_core.Pipeline.ssa ~args:[ 10; 3 ] in
      ignore (Helpers.ret_int r);
      List.iter
        (fun fn -> ignore (Engine.analyze fn))
        c.Vrp_core.Pipeline.ssa.Ir.fns)
    [ 1; 3; 10; 40 ]

(* Certainty soundness across the whole suite. *)
let certain_predictions_are_sound () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let c = Helpers.compile b.source in
      let ssa = c.Vrp_core.Pipeline.ssa in
      let observed = (Interp.run ssa ~args:b.ref_args).Interp.profile in
      let ipa = Vrp_core.Interproc.analyze ssa in
      List.iter
        (fun (fn : Ir.fn) ->
          match Vrp_core.Interproc.result ipa fn.Ir.fname with
          | None -> ()
          | Some res ->
            Hashtbl.iter
              (fun bid p ->
                if not (Engine.used_fallback res bid) && (p <= 0.0 || p >= 1.0) then begin
                  match Interp.observed_prob observed (fn.Ir.fname, bid) with
                  | Some actual ->
                    if Float.abs (actual -. p) > 1e-9 then
                      Alcotest.failf "%s/%s B%d: predicted certainly %.0f but observed %.3f"
                        b.name fn.Ir.fname bid p actual
                  | None -> () (* never executed *)
                end)
              res.Engine.branch_probs)
        ssa.Ir.fns)
    Vrp_suite.Suite.benchmarks

(* Return soundness: concrete arguments as singleton parameter ranges. *)
let return_ranges_contain_actual_results () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let c = Helpers.compile b.source in
      let ssa = c.Vrp_core.Pipeline.ssa in
      let actual = Helpers.ret_int (Interp.run ssa ~args:b.train_args) in
      let main = Option.get (Ir.find_fn ssa "main") in
      let param_values = List.map (fun v -> Value.const_int v) b.train_args in
      let res = Engine.analyze ~param_values main in
      if not (Helpers.contains_int res.Engine.return_value actual) then
        Alcotest.failf "%s: returned %d outside %s" b.name actual
          (Value.to_string res.Engine.return_value))
    Vrp_suite.Suite.benchmarks

(* The same property on randomly generated synthetic programs and inputs. *)
let prop_return_soundness =
  Helpers.qtest ~count:60 "return range contains actual result (synth programs)"
    QCheck2.Gen.(triple (int_range 1 12) (int_range 0 1000) (int_range 0 10000))
    (fun (units, n, seed) ->
      let src = Vrp_suite.Synth.generate ~units ~seed:(units * 3) () in
      let c = Helpers.compile src in
      let ssa = c.Vrp_core.Pipeline.ssa in
      match Interp.run ssa ~args:[ n; seed ] with
      | r ->
        let actual = Helpers.ret_int r in
        let main = Option.get (Ir.find_fn ssa "main") in
        let res =
          Engine.analyze ~param_values:[ Value.const_int n; Value.const_int seed ] main
        in
        Helpers.contains_int res.Engine.return_value actual
      | exception Interp.Trap _ -> true)

(* Paper §5 shape claims on the measured data. *)
let figure_shapes = lazy (Vrp_evaluation.Figures.accuracy ())

let mean_of r name = List.assoc name r.Vrp_evaluation.Figures.mean_errors

let shape_profiling_is_best () =
  List.iter
    (fun r ->
      let p = mean_of r "profiling" in
      List.iter
        (fun other ->
          if p > mean_of r other +. 1e-9 then
            Alcotest.failf "profiling must beat %s" other)
        [ "ball-larus"; "vrp"; "90/50"; "random" ])
    (Lazy.force figure_shapes)

let shape_vrp_beats_9050_and_random () =
  List.iter
    (fun r ->
      let v = mean_of r "vrp" in
      if v > mean_of r "90/50" +. 1e-9 then Alcotest.fail "vrp must beat 90/50";
      if v > mean_of r "random" +. 1e-9 then Alcotest.fail "vrp must beat random")
    (Lazy.force figure_shapes)

let shape_vrp_at_tight_margins () =
  (* the paper's key plot feature: VRP's curve is far above the heuristics
     at small error margins *)
  List.iter
    (fun (r : Vrp_evaluation.Figures.accuracy_result) ->
      let at_1 name = List.nth (List.assoc name r.Vrp_evaluation.Figures.curves) 0 in
      if at_1 "vrp" < at_1 "ball-larus" -. 1e-9 then
        Alcotest.fail "vrp must dominate heuristics within +-1pp";
      if at_1 "vrp" < at_1 "90/50" -. 1e-9 then
        Alcotest.fail "vrp must dominate 90/50 within +-1pp")
    (Lazy.force figure_shapes)

let shape_fp_better_than_int_for_vrp () =
  (* "the value range propagation method is significantly more accurate for
     numeric code than for integer and pointer code" *)
  let results = Lazy.force figure_shapes in
  let find cat w =
    List.find
      (fun (r : Vrp_evaluation.Figures.accuracy_result) ->
        r.Vrp_evaluation.Figures.suite = cat && r.Vrp_evaluation.Figures.weighted = w)
      results
  in
  List.iter
    (fun weighted ->
      let int_r = find Vrp_suite.Suite.Int_suite weighted in
      let fp_r = find Vrp_suite.Suite.Fp_suite weighted in
      let at_1 (r : Vrp_evaluation.Figures.accuracy_result) =
        List.nth (List.assoc "vrp" r.Vrp_evaluation.Figures.curves) 0
      in
      if at_1 fp_r <= at_1 int_r then
        Alcotest.failf "fp (%0.1f) must beat int (%0.1f) within +-1pp" (at_1 fp_r)
          (at_1 int_r))
    [ false; true ]

let shape_symbolic_helps () =
  (* "Adding symbolic ranges substantially increases the overall accuracy" *)
  let total config_name =
    List.fold_left
      (fun acc r -> acc +. mean_of r config_name)
      0.0 (Lazy.force figure_shapes)
  in
  if total "vrp" >= total "vrp-numeric" then
    Alcotest.failf "symbolic (%f) must improve on numeric-only (%f)" (total "vrp")
      (total "vrp-numeric")

let linearity_of_propagation () =
  (* Figures 5/6: evaluations and sub-operations grow linearly. *)
  let points = Vrp_evaluation.Figures.fig5_6 ~sizes:[ 4; 16; 64; 128; 256 ] () in
  let _, slope_e, r2_e =
    Vrp_evaluation.Figures.linear_fit points ~metric:(fun p ->
        p.Vrp_evaluation.Figures.evaluations)
  in
  let _, slope_s, r2_s =
    Vrp_evaluation.Figures.linear_fit points ~metric:(fun p ->
        p.Vrp_evaluation.Figures.sub_operations)
  in
  Alcotest.(check bool) "evaluations linear (r2 > 0.9)" true (r2_e > 0.9);
  Alcotest.(check bool) "sub-operations linear (r2 > 0.9)" true (r2_s > 0.9);
  Alcotest.(check bool) "slopes positive" true (slope_e > 0.0 && slope_s > 0.0)

let range_budget_bounds_work () =
  (* paper 4: up to R^2 sub-operations per evaluation; check the global
     ratio stays near that bound *)
  let points = Vrp_evaluation.Figures.fig5_6 ~sizes:[ 16; 64 ] () in
  List.iter
    (fun (p : Vrp_evaluation.Figures.complexity_point) ->
      let r = !Vrp_ranges.Config.max_ranges in
      let ratio =
        float_of_int p.Vrp_evaluation.Figures.sub_operations
        /. float_of_int (max 1 p.Vrp_evaluation.Figures.evaluations)
      in
      if ratio > float_of_int (4 * r * r) then
        Alcotest.failf "%s: %f sub-operations per evaluation" p.Vrp_evaluation.Figures.label
          ratio)
    points

let profiling_differs_between_inputs () =
  (* train and reference inputs genuinely behave differently somewhere —
     otherwise the experiment would not test generalisation *)
  let differs = ref 0 in
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let ssa = (Helpers.compile b.source).Vrp_core.Pipeline.ssa in
      let train = (Interp.run ssa ~args:b.train_args).Interp.profile in
      let observed = (Interp.run ssa ~args:b.ref_args).Interp.profile in
      Hashtbl.iter
        (fun key _ ->
          match (Interp.observed_prob train key, Interp.observed_prob observed key) with
          | Some a, Some b when Float.abs (a -. b) > 0.02 -> incr differs
          | _ -> ())
        observed.Interp.branches)
    Vrp_suite.Suite.benchmarks;
  Alcotest.(check bool) "some branches behave differently across inputs" true (!differs > 5)

let suite =
  ( "integration",
    [
      tc "suite compiles, runs, analyses" `Quick all_benchmarks_compile_run_analyze;
      tc "synthetic programs behave" `Quick synth_programs_compile_run_analyze;
      tc "certainty soundness" `Quick certain_predictions_are_sound;
      tc "return-range soundness (suite)" `Quick return_ranges_contain_actual_results;
      prop_return_soundness;
      tc "shape: profiling is best" `Quick shape_profiling_is_best;
      tc "shape: vrp beats 90/50 and random" `Quick shape_vrp_beats_9050_and_random;
      tc "shape: vrp dominates at tight margins" `Quick shape_vrp_at_tight_margins;
      tc "shape: fp beats int for vrp" `Quick shape_fp_better_than_int_for_vrp;
      tc "shape: symbolic ranges help" `Quick shape_symbolic_helps;
      tc "linearity of propagation" `Quick linearity_of_propagation;
      tc "sub-operations per evaluation bounded" `Quick range_budget_bounds_work;
      tc "train and reference inputs differ" `Quick profiling_differs_between_inputs;
    ] )
