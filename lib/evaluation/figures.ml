(** Regeneration of every figure in the paper's evaluation.

    - {!fig4}: the worked example's final ranges and branch probabilities
      (paper Figure 4);
    - {!fig5_6}: expression evaluations and evaluation sub-operations versus
      program size (Figures 5 and 6), over the suite plus generated
      programs;
    - {!fig7_8}: cumulative error curves for both suites, unweighted and
      execution-weighted, across the six predictors (Figures 7 and 8). *)

module Ir = Vrp_ir.Ir
module Interp = Vrp_profile.Interp
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Suite = Vrp_suite.Suite

(* --- Figure 4: the worked example --- *)

(** The paper's Figure 2 program, verbatim in MiniC. *)
let figure2_source =
  {|
int main(int n, int seed) {
  int y = 0;
  int acc = 0;
  for (int x = 0; x < 10; x++) {
    if (x > 7) { y = 1; } else { y = x; }
    if (y == 1) { acc = acc + 1; }
  }
  return acc;
}
|}

type fig4 = {
  ranges : (string * string) list;  (** variable name -> final range *)
  branch_probs : (string * float) list;  (** branch description -> P(taken) *)
}

let fig4 () : fig4 =
  let c = Pipeline.compile figure2_source in
  let fn = List.hd c.Pipeline.ssa.Ir.fns in
  let res = Engine.analyze fn in
  let ranges = ref [] in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Def (v, _) ->
            ranges :=
              (Vrp_ir.Var.to_string v, Vrp_ranges.Value.to_string res.Engine.values.(v.Vrp_ir.Var.id))
              :: !ranges
          | Ir.Store _ -> ())
        b.Ir.instrs);
  let branch_probs = ref [] in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Br br -> (
        match Engine.branch_prob res b.Ir.bid with
        | Some p ->
          let desc =
            Printf.sprintf "%s %s %s" (Ir.operand_to_string br.ba)
              (Vrp_lang.Ast.relop_to_string br.rel)
              (Ir.operand_to_string br.bb)
          in
          branch_probs := (desc, p) :: !branch_probs
        | None -> ())
      | Ir.Jump _ | Ir.Ret _ -> ());
  { ranges = List.rev !ranges; branch_probs = List.rev !branch_probs }

(* --- Figures 5 and 6: complexity study --- *)

type complexity_point = {
  label : string;
  instructions : int;
  evaluations : int;  (** Figure 5 y-axis *)
  sub_operations : int;  (** Figure 6 y-axis *)
}

(** Analyse one program and record its complexity metrics. *)
let complexity_of ~label (ssa : Ir.program) : complexity_point =
  let evaluations, counters =
    Vrp_ranges.Counters.with_counters (fun () ->
        List.fold_left
          (fun acc fn ->
            let res = Engine.analyze fn in
            acc + res.Engine.evaluations)
          0 ssa.Ir.fns)
  in
  {
    label;
    instructions = Ir.program_size ssa;
    evaluations;
    sub_operations = counters.Vrp_ranges.Counters.sub_ops;
  }

(** The complexity sweep: every suite benchmark plus generated programs of
    increasing size (12 sizes by default, up to roughly 50k instructions). *)
let fig5_6 ?(sizes = [ 2; 4; 8; 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024 ]) () :
    complexity_point list =
  let suite_points =
    List.map
      (fun (b : Suite.benchmark) ->
        let c = Pipeline.compile b.Suite.source in
        complexity_of ~label:b.Suite.name c.Pipeline.ssa)
      Suite.benchmarks
  in
  let synth_points =
    List.map
      (fun units ->
        let src = Vrp_suite.Synth.generate ~units ~seed:(units * 7) () in
        let c = Pipeline.compile src in
        complexity_of ~label:(Printf.sprintf "synth-%d" units) c.Pipeline.ssa)
      sizes
  in
  suite_points @ synth_points

(** Least-squares fit of a complexity metric against instruction count:
    (intercept, slope, r²). The paper's claim is linearity in practice. *)
let linear_fit (points : complexity_point list) ~(metric : complexity_point -> int) =
  Vrp_util.Stats.least_squares
    (List.map
       (fun p -> (float_of_int p.instructions, float_of_int (metric p)))
       points)

(* --- Figures 7 and 8: prediction accuracy --- *)

type accuracy_result = {
  suite : Suite.category;
  weighted : bool;
  curves : (string * float list) list;  (** predictor name -> cumulative curve *)
  mean_errors : (string * float) list;  (** predictor name -> mean |error| pp *)
}

(** Benchmarks measured individually; per-suite curves average the
    per-benchmark curves with equal weight. *)
let accuracy ?(category : Suite.category option) () : accuracy_result list =
  let selected =
    match category with
    | Some c -> Suite.by_category c
    | None -> Suite.benchmarks
  in
  (* Per-benchmark, per-predictor error populations. *)
  let per_bench =
    List.map
      (fun (b : Suite.benchmark) ->
        let c = Pipeline.compile b.Suite.source in
        let train = (Interp.run c.Pipeline.ssa ~args:b.Suite.train_args).Interp.profile in
        let observed = (Interp.run c.Pipeline.ssa ~args:b.Suite.ref_args).Interp.profile in
        let predictors = Pipeline.all_predictors ~train c.Pipeline.ssa in
        ( b,
          List.map
            (fun (name, prediction) ->
              (name, Error_analysis.branch_errors ~observed prediction))
            predictors ))
      selected
  in
  let predictor_names =
    match per_bench with
    | (_, preds) :: _ -> List.map fst preds
    | [] -> []
  in
  let categories =
    match category with Some c -> [ c ] | None -> [ Suite.Int_suite; Suite.Fp_suite ]
  in
  List.concat_map
    (fun cat ->
      let benches = List.filter (fun ((b : Suite.benchmark), _) -> b.Suite.category = cat) per_bench in
      List.map
        (fun weighted ->
          let curves =
            List.map
              (fun pname ->
                let per_bench_curves =
                  List.map
                    (fun (_, preds) ->
                      Error_analysis.curve ~weighted (List.assoc pname preds))
                    benches
                in
                (pname, Error_analysis.average_curves per_bench_curves))
              predictor_names
          in
          let mean_errors =
            List.map
              (fun pname ->
                let per_bench_means =
                  List.map
                    (fun (_, preds) ->
                      Error_analysis.mean_error ~weighted (List.assoc pname preds))
                    benches
                in
                (pname, Vrp_util.Stats.mean per_bench_means))
              predictor_names
          in
          { suite = cat; weighted; curves; mean_errors })
        [ false; true ])
    categories

(* --- Text rendering shared by the bench harness and the CLI --- *)

let render_fig4 (f : fig4) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "Value Ranges\n";
  List.iter
    (fun (v, r) -> Buffer.add_string buf (Printf.sprintf "  %-8s %s\n" v r))
    f.ranges;
  Buffer.add_string buf "Branch Probabilities\n";
  List.iter
    (fun (d, p) -> Buffer.add_string buf (Printf.sprintf "  %-12s %3.0f%%\n" d (100.0 *. p)))
    f.branch_probs;
  Buffer.contents buf

let render_complexity (points : complexity_point list) ~(metric : complexity_point -> int)
    ~(metric_name : string) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "# %-12s %14s %14s\n" "program" "instructions" metric_name);
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "  %-12s %14d %14d\n" p.label p.instructions (metric p)))
    (List.sort (fun a b -> Int.compare a.instructions b.instructions) points);
  let intercept, slope, r2 = linear_fit points ~metric in
  Buffer.add_string buf
    (Printf.sprintf "  least-squares: %s = %.2f + %.3f * instructions (r^2 = %.4f)\n"
       metric_name intercept slope r2);
  Buffer.contents buf

let render_accuracy (r : accuracy_result) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%s suite, %s\n"
       (String.uppercase_ascii (Suite.category_to_string r.suite))
       (if r.weighted then "weighted by execution count" else "unweighted"));
  Buffer.add_string buf "  margin";
  List.iter (fun (name, _) -> Buffer.add_string buf (Printf.sprintf " %12s" name)) r.curves;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i margin ->
      Buffer.add_string buf (Printf.sprintf "  <%-5d" margin);
      List.iter
        (fun (_, curve) -> Buffer.add_string buf (Printf.sprintf " %12.1f" (List.nth curve i)))
        r.curves;
      Buffer.add_char buf '\n')
    Error_analysis.margins;
  Buffer.add_string buf "  mean |error| (pp):";
  List.iter
    (fun (name, e) -> Buffer.add_string buf (Printf.sprintf "  %s=%.1f" name e))
    r.mean_errors;
  Buffer.add_char buf '\n';
  Buffer.contents buf
