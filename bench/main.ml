(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation sweeps DESIGN.md calls out, and times the
   core phases with Bechamel.

   Usage:
     bench/main.exe                 run everything (figures + ablations + perf)
     bench/main.exe fig4            the worked example (paper Figure 4)
     bench/main.exe fig5            expression evaluations vs program size
     bench/main.exe fig6            evaluation sub-operations vs program size
     bench/main.exe fig7            SPECint-style accuracy curves
     bench/main.exe fig8            SPECfp-style accuracy curves
     bench/main.exe ablate-r        range-budget sweep (R = 1..16)
     bench/main.exe ablate-worklist flow-first vs SSA-first draining
     bench/main.exe ablate-assert   with/without branch assertions
     bench/main.exe ablate-derive   with/without loop derivation
     bench/main.exe ablate-trip     trip-count prior sweep
     bench/main.exe perf            Bechamel micro/macro timings

   End-to-end speed is measured by perfbench/ (see perfbench/README.md). *)

module Figures = Vrp_evaluation.Figures
module Error_analysis = Vrp_evaluation.Error_analysis
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interp = Vrp_profile.Interp
module Suite = Vrp_suite.Suite

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* --- Figures --- *)

let fig4 () =
  header "Figure 4: worked example (paper Fig. 2) - ranges and probabilities";
  print_string (Figures.render_fig4 (Figures.fig4 ()));
  print_string
    "paper reference: x1<10 = 91%, x2>7 = 20%, y2==1 = 30%; x1 = 1[0:10:1],\n\
     y2 = { 0.8[0:7:1], 0.2[1:1:0] }\n"

let complexity_points = lazy (Figures.fig5_6 ())

let fig5 () =
  header "Figure 5: expression evaluations vs instructions";
  print_string
    (Figures.render_complexity (Lazy.force complexity_points)
       ~metric:(fun p -> p.Figures.evaluations)
       ~metric_name:"evaluations")

let fig6 () =
  header "Figure 6: evaluation sub-operations vs instructions";
  print_string
    (Figures.render_complexity (Lazy.force complexity_points)
       ~metric:(fun p -> p.Figures.sub_operations)
       ~metric_name:"sub-operations")

let fig7 () =
  header "Figure 7: SPECint-style suite accuracy (unweighted & weighted)";
  List.iter
    (fun r -> print_string (Figures.render_accuracy r))
    (Figures.accuracy ~category:Suite.Int_suite ())

let fig8 () =
  header "Figure 8: SPECfp-style suite accuracy (unweighted & weighted)";
  List.iter
    (fun r -> print_string (Figures.render_accuracy r))
    (Figures.accuracy ~category:Suite.Fp_suite ())

(* --- Ablations --- *)

(* Mean |error| over the whole suite for a given engine configuration, plus
   total expression evaluations (cost proxy). *)
let evaluate_config (config : Engine.config) : float * int =
  let errors = ref [] in
  let cost = ref 0 in
  List.iter
    (fun (b : Suite.benchmark) ->
      let c = Pipeline.compile b.Suite.source in
      let observed = (Interp.run c.Pipeline.ssa ~args:b.Suite.ref_args).Interp.profile in
      List.iter
        (fun fn ->
          let res = Engine.analyze ~config fn in
          cost := !cost + res.Engine.evaluations)
        c.Pipeline.ssa.Vrp_ir.Ir.fns;
      let prediction, _ = Pipeline.vrp_predictions ~config c.Pipeline.ssa in
      errors :=
        Error_analysis.mean_error ~weighted:false
          (Error_analysis.branch_errors ~observed prediction)
        :: !errors)
    Suite.benchmarks;
  (Vrp_util.Stats.mean !errors, !cost)

let ablate_r () =
  header "Ablation: range budget R (paper fixes R = 4)";
  Printf.printf "  %4s %18s %16s\n" "R" "mean |error| (pp)" "evaluations";
  List.iter
    (fun r ->
      Vrp_ranges.Config.with_max_ranges r (fun () ->
          let err, cost = evaluate_config Engine.default_config in
          Printf.printf "  %4d %18.2f %16d\n%!" r err cost))
    [ 1; 2; 4; 8; 16 ]

let ablate_worklist () =
  header "Ablation: worklist discipline (paper prefers the FlowWorkList)";
  List.iter
    (fun flow_first ->
      let err, cost = evaluate_config { Engine.default_config with flow_first } in
      Printf.printf "  %-10s mean |error| = %.2f pp, evaluations = %d\n%!"
        (if flow_first then "flow-first" else "ssa-first")
        err cost)
    [ true; false ]

let ablate_assert () =
  header "Ablation: branch assertions (paper 3.8)";
  List.iter
    (fun use_assertions ->
      let err, cost = evaluate_config { Engine.default_config with use_assertions } in
      Printf.printf "  %-14s mean |error| = %.2f pp, evaluations = %d\n%!"
        (if use_assertions then "with-asserts" else "no-asserts")
        err cost)
    [ true; false ]

let ablate_derive () =
  header "Ablation: loop-carried derivation (paper 3.6)";
  (* Micro-study first: counted loops of increasing trip count, analysed
     with an unlimited quota. The paper: without derivation "each loop would
     execute as many times during propagation as it would at runtime". *)
  Printf.printf "  counted loop micro-study (quota = trip count + 8):\n";
  List.iter
    (fun trips ->
      let src =
        Printf.sprintf
          "int main(int n, int seed) {\n\
          \  int acc = 0;\n\
          \  for (int i = 0; i < %d; i++) { acc = (acc + i) %% 65536; }\n\
          \  return acc;\n\
           }\n"
          trips
      in
      let c = Pipeline.compile src in
      let fn = List.hd c.Pipeline.ssa.Vrp_ir.Ir.fns in
      let costs =
        List.map
          (fun use_derivation ->
            let config =
              { Engine.default_config with use_derivation; eval_quota = trips + 8 }
            in
            (Engine.analyze ~config fn).Engine.evaluations)
          [ true; false ]
      in
      match costs with
      | [ with_d; without_d ] ->
        Printf.printf "    trips=%-7d evaluations: with-derive=%-6d no-derive=%d\n%!"
          trips with_d without_d
      | _ -> ())
    [ 100; 1_000; 10_000 ];
  List.iter
    (fun use_derivation ->
      let err, cost = evaluate_config { Engine.default_config with use_derivation } in
      Printf.printf "  %-14s (default quota) mean |error| = %.2f pp, evaluations = %d\n%!"
        (if use_derivation then "with-derive" else "no-derive")
        err cost)
    [ true; false ]

let ablate_trip_prior () =
  header "Ablation: back-edge trip-count prior at loop-header phis";
  Printf.printf "  %8s %18s\n" "prior" "mean |error| (pp)";
  List.iter
    (fun trip_prior ->
      let err, _ = evaluate_config { Engine.default_config with trip_prior } in
      Printf.printf "  %8.1f %18.2f\n%!" trip_prior err)
    [ 1.0; 4.0; 10.0; 25.0; 100.0 ]

(* --- Bechamel timings --- *)

let perf () =
  header "Performance (Bechamel; one Test.make per phase)";
  let open Bechamel in
  let open Toolkit in
  (* Pre-compiled inputs so the benchmarks time only the phase of interest. *)
  let qsort = Option.get (Suite.find "qsort") in
  let compiled = Pipeline.compile qsort.Suite.source in
  let main_fn = Option.get (Vrp_ir.Ir.find_fn compiled.Pipeline.ssa "main") in
  let r1 =
    Vrp_ranges.Value.of_ranges
      [
        Vrp_ranges.Srange.numeric ~p:0.7 (Vrp_ranges.Progression.make 32 256 1);
        Vrp_ranges.Srange.numeric ~p:0.3 (Vrp_ranges.Progression.make 3 21 3);
      ]
  in
  let r2 =
    Vrp_ranges.Value.of_ranges
      [
        Vrp_ranges.Srange.numeric ~p:0.6 (Vrp_ranges.Progression.make 16 100 4);
        Vrp_ranges.Srange.numeric ~p:0.4 (Vrp_ranges.Progression.make 8 8 0);
      ]
  in
  let tests =
    [
      Test.make ~name:"range-add"
        (Staged.stage (fun () -> Vrp_ranges.Value.binop Vrp_lang.Ast.Add r1 r2));
      Test.make ~name:"range-cmp-prob"
        (Staged.stage (fun () -> Vrp_ranges.Value.cmp_prob Vrp_lang.Ast.Lt r1 r2));
      Test.make ~name:"front-end-qsort"
        (Staged.stage (fun () -> Pipeline.compile qsort.Suite.source));
      Test.make ~name:"sccp-qsort-main"
        (Staged.stage (fun () -> Vrp_core.Sccp.analyze main_fn));
      Test.make ~name:"vrp-qsort-main"
        (Staged.stage (fun () -> Engine.analyze main_fn));
      Test.make ~name:"vrp-numeric-qsort-main"
        (Staged.stage (fun () -> Engine.analyze ~config:Engine.numeric_only_config main_fn));
      Test.make ~name:"ball-larus-qsort"
        (Staged.stage (fun () -> Vrp_predict.Predictor.ball_larus compiled.Pipeline.ssa));
      Test.make ~name:"interproc-vrp-qsort"
        (Staged.stage (fun () -> Vrp_core.Interproc.analyze compiled.Pipeline.ssa));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        Analyze.all ols Instance.monotonic_clock raw)
      (List.map (fun t -> Test.make_grouped ~name:"vrp" ~fmt:"%s/%s" [ t ]) tests)
  in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-34s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-34s (no estimate)\n%!" name)
        tbl)
    results

let all () =
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  ablate_r ();
  ablate_worklist ();
  ablate_assert ();
  ablate_derive ();
  ablate_trip_prior ();
  perf ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> all ()
  | [ _; "fig4" ] -> fig4 ()
  | [ _; "fig5" ] -> fig5 ()
  | [ _; "fig6" ] -> fig6 ()
  | [ _; "fig7" ] -> fig7 ()
  | [ _; "fig8" ] -> fig8 ()
  | [ _; "ablate-r" ] -> ablate_r ()
  | [ _; "ablate-worklist" ] -> ablate_worklist ()
  | [ _; "ablate-assert" ] -> ablate_assert ()
  | [ _; "ablate-derive" ] -> ablate_derive ()
  | [ _; "ablate-trip" ] -> ablate_trip_prior ()
  | [ _; "perf" ] -> perf ()
  | _ ->
    prerr_endline
      "usage: main.exe [all|fig4|fig5|fig6|fig7|fig8|ablate-r|ablate-worklist|ablate-assert|ablate-derive|ablate-trip|perf]";
    exit 2
