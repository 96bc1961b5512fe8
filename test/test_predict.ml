(** Heuristic-predictor tests: each Ball–Larus heuristic on a CFG crafted to
    trigger it, the Dempster–Shafer combination, the 90/50 rule, and the
    predictor-interface invariants. *)

module H = Vrp_predict.Heuristics
module Predictor = Vrp_predict.Predictor
module Ir = Vrp_ir.Ir

let tc = Alcotest.test_case

(* Probability of the first conditional branch of main under a heuristic. *)
let first_branch_prob src f =
  let _, fn = Helpers.compile_main src in
  let st = Vrp_ir.Static.of_fn fn in
  let found = ref None in
  Ir.iter_blocks fn (fun b ->
      if !found = None then
        match b.Ir.term with
        | Ir.Br br -> found := Some (f st ~src:b.Ir.bid br)
        | Ir.Jump _ | Ir.Ret _ -> ());
  match !found with Some p -> p | None -> Alcotest.fail "no branch"

let loop_branch_heuristic () =
  (* the loop header branch: staying edge predicted with LBH confidence *)
  let p =
    first_branch_prob
      "int main(int n, int s) { int i = 0; while (i < n) { i++; } return i; }"
      (fun st ~src br ->
        match H.loop_branch st ~src br with Some p -> p | None -> Alcotest.fail "LBH silent")
  in
  Helpers.check_prob "LBH predicts stay" 0.88 p

let opcode_heuristic_eq () =
  let p =
    first_branch_prob "int main(int n, int s) { if (n == 3) { return 1; } return 0; }"
      (fun st ~src br ->
        match H.opcode st ~src br with Some p -> p | None -> Alcotest.fail "OH silent")
  in
  Helpers.check_prob "OH: == unlikely" (1.0 -. 0.84) p

let opcode_heuristic_lt_zero () =
  let p =
    first_branch_prob "int main(int n, int s) { if (n < 0) { return 1; } return 0; }"
      (fun st ~src br ->
        match H.opcode st ~src br with Some p -> p | None -> Alcotest.fail "OH silent")
  in
  Helpers.check_prob "OH: < 0 unlikely" (1.0 -. 0.84) p

let opcode_heuristic_silent_on_plain_lt () =
  let src = "int main(int n, int s) { if (n < s) { return 1; } return 0; }" in
  let _, fn = Helpers.compile_main src in
  let st = Vrp_ir.Static.of_fn fn in
  Ir.iter_blocks fn (fun b ->
      match b.Ir.term with
      | Ir.Br br ->
        if H.opcode st ~src:b.Ir.bid br <> None then
          Alcotest.fail "OH must not fire on a plain < between variables"
      | Ir.Jump _ | Ir.Ret _ -> ())

let return_heuristic () =
  let p =
    first_branch_prob
      "int main(int n, int s) { if (n > 0) { return 1; } n = n + s; if (n > 99) { n = 0; } \
       return n; }"
      (fun st ~src br ->
        match H.return st ~src br with Some p -> p | None -> Alcotest.fail "RH silent")
  in
  Helpers.check_prob "RH: returning arm not taken" (1.0 -. 0.72) p

let call_heuristic () =
  let src =
    {|
int helper(int x) { return x; }
int main(int n, int s) {
  int acc = 0;
  if (n > 0) { acc = helper(n); acc = acc + 1; } else { acc = 2; }
  return acc;
}
|}
  in
  let p =
    first_branch_prob src (fun st ~src br ->
        match H.call st ~src br with Some p -> p | None -> Alcotest.fail "CH silent")
  in
  Helpers.check_prob "CH: calling arm not taken" (1.0 -. 0.78) p

let store_heuristic () =
  let src =
    "int g[4]; int main(int n, int s) { if (n > 0) { g[0] = n; n = n + 1; } else { n = 2; } \
     return n; }"
  in
  let p =
    first_branch_prob src (fun st ~src br ->
        match H.store st ~src br with Some p -> p | None -> Alcotest.fail "SH silent")
  in
  Helpers.check_prob "SH: storing arm not taken" (1.0 -. 0.55) p

let loop_header_heuristic () =
  let src =
    "int main(int n, int s) {\n\
     int acc = 0;\n\
     if (n > 0) {\n\
     for (int i = 0; i < 10; i++) { acc = acc + i; }\n\
     } else { acc = 1; }\n\
     return acc; }"
  in
  let p =
    first_branch_prob src (fun st ~src br ->
        match H.loop_header st ~src br with Some p -> p | None -> Alcotest.fail "LHH silent")
  in
  Helpers.check_prob "LHH: loop-heading arm taken" 0.75 p

let dempster_shafer_math () =
  Helpers.check_prob "neutral element" 0.7 (Vrp_predict.Combine.dempster_shafer 0.7 0.5);
  Helpers.check_prob "two agreeing" (0.64 /. (0.64 +. 0.04))
    (Vrp_predict.Combine.dempster_shafer 0.8 0.8);
  Helpers.check_prob "combine empty" 0.5 (Vrp_predict.Combine.combine []);
  (* commutativity *)
  Helpers.check_prob "commutative"
    (Vrp_predict.Combine.combine [ 0.9; 0.3; 0.6 ])
    (Vrp_predict.Combine.combine [ 0.6; 0.9; 0.3 ])

let ninety_fifty_rule () =
  let loop_prob =
    first_branch_prob
      "int main(int n, int s) { int i = 0; while (i < n) { i++; } return i; }"
      (fun st ~src br -> H.ninety_fifty st ~src br)
  in
  Helpers.check_prob "loop-continuing edge 90%" 0.9 loop_prob;
  let fwd_prob =
    first_branch_prob "int main(int n, int s) { if (n > s) { return 1; } return 0; }"
      (fun st ~src br -> H.ninety_fifty st ~src br)
  in
  Helpers.check_prob "forward branch 50%" 0.5 fwd_prob

let predictions_are_total_and_valid () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let c = Helpers.compile b.source in
      let ssa = c.Vrp_core.Pipeline.ssa in
      let branches = Predictor.branches ssa in
      let train =
        (Vrp_profile.Interp.run ssa ~args:b.train_args).Vrp_profile.Interp.profile
      in
      List.iter
        (fun (name, prediction) ->
          List.iter
            (fun (key, _) ->
              match Hashtbl.find_opt prediction key with
              | Some p ->
                if p < 0.0 || p > 1.0 || Float.is_nan p then
                  Alcotest.failf "%s/%s: probability %f out of range" b.name name p
              | None ->
                let fname, bid = key in
                Alcotest.failf "%s/%s: missing prediction for %s.B%d" b.name name fname bid)
            branches)
        (Vrp_core.Pipeline.all_predictors ~train ssa))
    [ List.hd Vrp_suite.Suite.benchmarks; Option.get (Vrp_suite.Suite.find "jacobi") ]

let profiling_predictor_reproduces_training () =
  let b = Option.get (Vrp_suite.Suite.find "lexer") in
  let c = Helpers.compile b.source in
  let ssa = c.Vrp_core.Pipeline.ssa in
  let train = (Vrp_profile.Interp.run ssa ~args:b.train_args).Vrp_profile.Interp.profile in
  let prediction = Predictor.profiling train ssa in
  Hashtbl.iter
    (fun key (st : Vrp_profile.Interp.branch_stats) ->
      if st.Vrp_profile.Interp.total > 0 then begin
        let want =
          float_of_int st.Vrp_profile.Interp.taken /. float_of_int st.Vrp_profile.Interp.total
        in
        match Hashtbl.find_opt prediction key with
        | Some got -> Helpers.check_prob "training behaviour reproduced" want got
        | None -> Alcotest.fail "missing branch"
      end)
    train.Vrp_profile.Interp.branches

let random_predictor_is_deterministic () =
  let b = Option.get (Vrp_suite.Suite.find "bfs") in
  let ssa = (Helpers.compile b.source).Vrp_core.Pipeline.ssa in
  let p1 = Predictor.random ssa and p2 = Predictor.random ssa in
  Hashtbl.iter
    (fun key v ->
      match Hashtbl.find_opt p2 key with
      | Some v' -> Helpers.check_prob "deterministic" v v'
      | None -> Alcotest.fail "missing")
    p1

let perfect_predictor_has_zero_error () =
  let b = Option.get (Vrp_suite.Suite.find "kmp") in
  let ssa = (Helpers.compile b.source).Vrp_core.Pipeline.ssa in
  let observed = (Vrp_profile.Interp.run ssa ~args:b.ref_args).Vrp_profile.Interp.profile in
  let prediction = Predictor.perfect observed ssa in
  let errs = Vrp_evaluation.Error_analysis.branch_errors ~observed prediction in
  Helpers.check_prob "zero error" 0.0
    (Vrp_evaluation.Error_analysis.mean_error ~weighted:false errs)

let suite =
  ( "predict",
    [
      tc "ball-larus: loop branch" `Quick loop_branch_heuristic;
      tc "ball-larus: opcode ==" `Quick opcode_heuristic_eq;
      tc "ball-larus: opcode < 0" `Quick opcode_heuristic_lt_zero;
      tc "ball-larus: opcode silent" `Quick opcode_heuristic_silent_on_plain_lt;
      tc "ball-larus: return" `Quick return_heuristic;
      tc "ball-larus: call" `Quick call_heuristic;
      tc "ball-larus: store" `Quick store_heuristic;
      tc "ball-larus: loop header" `Quick loop_header_heuristic;
      tc "dempster-shafer" `Quick dempster_shafer_math;
      tc "90/50 rule" `Quick ninety_fifty_rule;
      tc "predictions total and valid" `Quick predictions_are_total_and_valid;
      tc "profiling reproduces training" `Quick profiling_predictor_reproduces_training;
      tc "random is deterministic" `Quick random_predictor_is_deterministic;
      tc "perfect predictor zero error" `Quick perfect_predictor_has_zero_error;
    ] )
