(** Frequency-estimation tests (paper §6 application) and the DOT exporter. *)

module Engine = Vrp_core.Engine
module Frequency = Vrp_core.Frequency
module Ir = Vrp_ir.Ir

let tc = Alcotest.test_case

(* Whole-program frequencies under the predictions [vrpc predict] prints. *)
let program_freq src =
  let ssa = (Helpers.compile src).Vrp_core.Pipeline.ssa in
  Frequency.of_prediction ssa (fst (Vrp_core.Pipeline.vrp_predictions ssa))

let fn_freq src = Hashtbl.find (program_freq src).Frequency.per_fn "main"

let straight_line_everything_once () =
  let ff = fn_freq "int main(int n, int s) { int x = n + 1; return x; }" in
  Array.iter (fun f -> Helpers.check_prob "once" 1.0 f) ff.Frequency.block_freq

let diamond_splits_and_rejoins () =
  let ff =
    fn_freq "int main(int n, int s) { int x = 0; if (n > 0) { x = 1; } else { x = 2; } return x; }"
  in
  (* entry and join execute once; the arms sum to 1 *)
  let fn = ff.Frequency.fn in
  let arm_sum = ref 0.0 in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Jump _ -> arm_sum := !arm_sum +. ff.Frequency.block_freq.(b.Ir.bid)
      | Ir.Br _ | Ir.Ret _ -> ());
  Helpers.check_prob "arms sum to 1" 1.0 !arm_sum;
  Helpers.check_prob "entry once" 1.0 ff.Frequency.block_freq.(Ir.entry_bid)

let counted_loop_frequency_matches_trip_count () =
  let ff =
    fn_freq
      "int main(int n, int s) { int acc = 0; for (int i = 0; i < 100; i++) { acc = acc + i; \
       } return acc; }"
  in
  (* the loop header executes 101 times per invocation: VRP predicts the
     branch at 100/101, so 1/(1-p·stay...) reconstructs ~101 *)
  let fn = ff.Frequency.fn in
  let header_freq = ref 0.0 in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Br _ -> header_freq := Float.max !header_freq ff.Frequency.block_freq.(b.Ir.bid)
      | Ir.Jump _ | Ir.Ret _ -> ());
  if Float.abs (!header_freq -. 101.0) > 1.0 then
    Alcotest.failf "expected header frequency ~101, got %f" !header_freq

let nonterminating_loop_is_capped () =
  let ff =
    fn_freq "int main(int n, int s) { while (1 == 1) { n = n + 1; } return n; }"
  in
  Array.iter
    (fun f ->
      if Float.is_nan f || f > 1.1e12 then Alcotest.failf "frequency not capped: %f" f)
    ff.Frequency.block_freq

let call_graph_frequencies () =
  let src =
    {|
int leaf(int x) { return x + 1; }
int mid(int x) {
  int acc = 0;
  for (int i = 0; i < 10; i++) { acc = acc + leaf(i); }
  return acc;
}
int main(int n, int s) { return mid(1) + mid(2); }
|}
  in
  let f = program_freq src in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt f.Frequency.call_freq name) in
  Helpers.check_prob "main once" 1.0 (get "main");
  Helpers.check_prob ~eps:0.01 "mid twice" 2.0 (get "mid");
  (* leaf: 2 invocations of mid x 10 loop iterations *)
  if Float.abs (get "leaf" -. 20.0) > 1.0 then
    Alcotest.failf "expected leaf ~20, got %f" (get "leaf")

let recursion_capped () =
  let src =
    {|
int forever(int x) { return forever(x + 1); }
int main(int n, int s) { return forever(0); }
|}
  in
  let f = program_freq src in
  Hashtbl.iter
    (fun _ v -> if Float.is_nan v then Alcotest.fail "recursion produced NaN")
    f.Frequency.call_freq

let hottest_blocks_sorted () =
  let b = Option.get (Vrp_suite.Suite.find "proto") in
  let f = program_freq b.source in
  let hot = Frequency.hottest_blocks f in
  let rec check = function
    | (_, _, a) :: ((_, _, b) :: _ as rest) ->
      if a < b then Alcotest.fail "not sorted";
      check rest
    | _ -> ()
  in
  check hot;
  Alcotest.(check bool) "non-empty" true (hot <> [])

(* frequencies should correlate with actual execution counts *)
let frequencies_correlate_with_reality () =
  let b = Option.get (Vrp_suite.Suite.find "matmul") in
  let c = Helpers.compile b.source in
  let ssa = c.Vrp_core.Pipeline.ssa in
  let observed = (Vrp_profile.Interp.run ssa ~args:b.ref_args).Vrp_profile.Interp.profile in
  let f = Frequency.of_prediction ssa (fst (Vrp_core.Pipeline.vrp_predictions ssa)) in
  (* compare ordering: the hottest observed branch should rank in the top
     half of predicted frequencies *)
  let observed_branches =
    Hashtbl.fold
      (fun (fname, bid) (st : Vrp_profile.Interp.branch_stats) acc ->
        ((fname, bid), st.Vrp_profile.Interp.total) :: acc)
      observed.Vrp_profile.Interp.branches []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  match observed_branches with
  | ((fname, bid), _) :: _ ->
    let predicted =
      Option.value ~default:0.0 (Frequency.global_block_freq f ~fname ~bid)
    in
    Alcotest.(check bool) "hottest observed branch predicted hot" true (predicted > 100.0)
  | [] -> Alcotest.fail "no branches"

(* Under each program's own profile the solve is exact: flow conservation
   makes every block and call count a solution of the equations. *)
let suite_conserves_profile_counts () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let ssa = (Helpers.compile b.source).Vrp_core.Pipeline.ssa in
      match Vrp_fuzz.Oracle.check_conservation ssa ~args:b.train_args with
      | [] -> ()
      | v :: _ -> Alcotest.failf "%s: %s" b.name (Vrp_fuzz.Oracle.violation_to_string v))
    Vrp_suite.Suite.benchmarks

(* 60 001 blocks: a dense solve would need about 29 GB. *)
let twenty_thousand_ifs () =
  let buf = Buffer.create (20_000 * 32) in
  Buffer.add_string buf "int main(int n, int s) {\n  int y = 0;\n";
  for i = 0 to 19_999 do
    Buffer.add_string buf (Printf.sprintf "  if (n < %d) { y = y + %d; }\n" i i)
  done;
  Buffer.add_string buf "  return y;\n}\n";
  let ssa = (Helpers.compile (Buffer.contents buf)).Vrp_core.Pipeline.ssa in
  let f = Frequency.of_prediction ssa (Vrp_predict.Predictor.ball_larus ssa) in
  let ff = Hashtbl.find f.Frequency.per_fn "main" in
  Helpers.check_prob "entry once" 1.0 ff.Frequency.block_freq.(Ir.entry_bid);
  Ir.iter_blocks ff.Frequency.fn (fun b ->
      match b.Ir.term with
      | Ir.Ret _ -> Helpers.check_prob "exit once" 1.0 ff.Frequency.block_freq.(b.Ir.bid)
      | Ir.Jump _ | Ir.Br _ -> ())

(* B0 branches into both B1 and B2, which jump to each other: a cycle with
   two entries, which no natural loop covers. MiniC never builds one. *)
let irreducible_cfg_fails_loudly () =
  let block bid term = { Ir.bid; instrs = []; term; preds = [] } in
  let br tdst fdst = Ir.Br { rel = Vrp_lang.Ast.Lt; ba = Ir.Cint 0; bb = Ir.Cint 1; tdst; fdst } in
  let fn =
    {
      Ir.fname = "main";
      ret_ty = Vrp_lang.Ast.Tint;
      params = [];
      blocks = [| block 0 (br 1 2); block 1 (br 2 3); block 2 (br 1 3); block 3 (Ir.Ret None) |];
      nvars = 0;
      local_arrays = [];
    }
  in
  Ir.recompute_preds fn;
  let program = { Ir.fns = [ fn ]; global_arrays = [] } in
  match Frequency.of_prediction program (Hashtbl.create 1) with
  | _ -> Alcotest.fail "an irreducible CFG was solved"
  | exception Failure msg ->
    Alcotest.(check bool) "names the edge" true (Astring.String.is_infix ~affix:"irreducible" msg)

(* --- DOT --- *)

let dot_output_well_formed () =
  let _, fn = Helpers.compile_main Vrp_evaluation.Figures.figure2_source in
  let res = Engine.analyze fn in
  let dot = Vrp_ir.Dot.fn_to_dot ~branch_prob:(Engine.branch_prob res) fn in
  Alcotest.(check bool) "digraph header" true
    (Astring.String.is_prefix ~affix:"digraph" dot);
  Alcotest.(check bool) "closed" true (Astring.String.is_suffix ~affix:"}\n" dot);
  Alcotest.(check bool) "has the 91% annotation" true
    (Astring.String.is_infix ~affix:"90.9%" dot);
  (* every block appears *)
  Ir.iter_blocks fn (fun b ->
      if not (Astring.String.is_infix ~affix:(Printf.sprintf "n%d " b.Ir.bid) dot) then
        Alcotest.failf "block %d missing from dot" b.Ir.bid)

let dot_escapes_quotes () =
  let dot =
    Vrp_ir.Dot.fn_to_dot
      ~block_note:(fun _ -> Some "note with \"quotes\" and \\ backslash")
      (snd (Helpers.compile_main "int main(int n, int s) { return n; }"))
  in
  Alcotest.(check bool) "escaped" true (Astring.String.is_infix ~affix:"\\\"quotes\\\"" dot)

let suite =
  ( "frequency",
    [
      tc "straight line" `Quick straight_line_everything_once;
      tc "diamond" `Quick diamond_splits_and_rejoins;
      tc "counted loop" `Quick counted_loop_frequency_matches_trip_count;
      tc "non-terminating loop capped" `Quick nonterminating_loop_is_capped;
      tc "call graph" `Quick call_graph_frequencies;
      tc "recursion capped" `Quick recursion_capped;
      tc "hottest blocks sorted" `Quick hottest_blocks_sorted;
      tc "correlates with reality" `Quick frequencies_correlate_with_reality;
      tc "suite conserves profile counts" `Quick suite_conserves_profile_counts;
      tc "20 000 ifs" `Quick twenty_thousand_ifs;
      tc "irreducible CFG fails loudly" `Quick irreducible_cfg_fails_loudly;
      tc "dot well-formed" `Quick dot_output_well_formed;
      tc "dot escapes" `Quick dot_escapes_quotes;
    ] )
