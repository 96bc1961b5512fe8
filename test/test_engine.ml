(** Engine tests: the paper's worked example in full, loop derivation
    template coverage, assertion narrowing through branches, quota widening,
    unreachable-code probabilities, and configuration ablations. *)

module Engine = Vrp_core.Engine
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var

let tc = Alcotest.test_case

let figure2 =
  {|
int main(int n, int s) {
  int y = 0;
  int acc = 0;
  for (int x = 0; x < 10; x++) {
    if (x > 7) { y = 1; } else { y = x; }
    if (y == 1) { acc = acc + 1; }
  }
  return acc;
}
|}

let paper_figure4_probabilities () =
  let f = Vrp_evaluation.Figures.fig4 () in
  let expect desc p =
    match List.assoc_opt desc f.Vrp_evaluation.Figures.branch_probs with
    | Some got -> Helpers.check_prob ~eps:1e-4 desc p got
    | None ->
      Alcotest.failf "missing branch %s (have: %s)" desc
        (String.concat ", " (List.map fst f.Vrp_evaluation.Figures.branch_probs))
  in
  expect "x.1 < 10" (10.0 /. 11.0);
  expect "x.2 > 7" 0.2;
  expect "y.3 == 1" 0.3

let paper_figure4_ranges () =
  let res = Helpers.analyze_main figure2 in
  let check base expected =
    Alcotest.(check string) base expected (Value.to_string (Helpers.last_version res base))
  in
  (* the paper's x1 (the header φ) is our highest-versioned-but-one... we
     check the distinctive ranges by their paper values *)
  let all =
    let acc = ref [] in
    Ir.iter_blocks res.Engine.fn (fun b ->
        List.iter
          (fun i ->
            match Ir.instr_def i with
            | Some v ->
              acc := Value.to_string res.Engine.values.(v.Vrp_ir.Var.id) :: !acc
            | None -> ())
          b.Ir.instrs);
    !acc
  in
  let expect_present range =
    if not (List.mem range all) then
      Alcotest.failf "expected range %s among results" range
  in
  expect_present "{ 1[0:10:1] }";  (* x1 *)
  expect_present "{ 1[0:9:1] }";  (* x2 = assert(x1 < 10) *)
  expect_present "{ 1[1:10:1] }";  (* x5 = x4 + 1 *)
  expect_present "{ 0.8[0:7:1], 0.2[1:1:0] }";  (* y2 *)
  ignore check

let derive_up_lt () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i; for (i = 0; i < 100; i++) { } return i; }"
  in
  Helpers.check_prob "P(i<100)" (100.0 /. 101.0) (Helpers.prob_of_branch_on res "i")

let derive_up_le () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i; for (i = 0; i <= 100; i++) { } return i; }"
  in
  Helpers.check_prob "P(i<=100)" (101.0 /. 102.0) (Helpers.prob_of_branch_on res "i")

let derive_down () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i; for (i = 99; i >= 0; i = i - 1) { } return i; }"
  in
  Helpers.check_prob "P(i>=0)" (100.0 /. 101.0) (Helpers.prob_of_branch_on res "i")

let derive_strided () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i; for (i = 0; i < 30; i = i + 3) { } return i; }"
  in
  (* i in [0:30:3]: 10 of 11 values below 30 *)
  Helpers.check_prob "P(i<30)" (10.0 /. 11.0) (Helpers.prob_of_branch_on res "i")

let derive_while_form () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i = 5; while (i < 25) { i = i + 5; } return i; }"
  in
  Helpers.check_prob "P(i<25)" (4.0 /. 5.0) (Helpers.prob_of_branch_on res "i")

let derive_multi_increment () =
  (* increments {1,2}: gcd 1, conservative overshoot *)
  let src =
    "int main(int n, int s) {\n\
     int i = 0;\n\
     while (i < 100) {\n\
     if (s > 0) { i = i + 2; } else { i = i + 1; }\n\
     }\n\
     return i; }"
  in
  let res = Helpers.analyze_main src in
  let p = Helpers.prob_of_branch_on res "i" in
  (* derived range is [0:101:1]: 100/102 <= p <= 101/102 *)
  if p < 0.95 || p > 1.0 then Alcotest.failf "loop probability out of range: %f" p

let derive_interproc_bound () =
  (* the loop bound arrives as an exactly-known parameter *)
  let src =
    {|
int spin(int k) {
  int i;
  for (i = 0; i < k; i++) { }
  return i;
}
int main(int n, int s) { return spin(50); }
|}
  in
  let c = Helpers.compile src in
  let ipa = Vrp_core.Interproc.analyze c.Vrp_core.Pipeline.ssa in
  let res = Option.get (Vrp_core.Interproc.result ipa "spin") in
  Helpers.check_prob "P(i<50)" (50.0 /. 51.0) (Helpers.prob_of_branch_on res "i")

let derive_symbolic_bound_falls_back () =
  (* unknown bound: the loop branch must fall back to heuristics, not to a
     fabricated probability *)
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int i; for (i = 0; i < n; i++) { } return i; }"
  in
  let bid =
    let found = ref (-1) in
    Ir.iter_blocks res.Engine.fn (fun b ->
        match b.Ir.term with Ir.Br _ -> if !found < 0 then found := b.Ir.bid | _ -> ());
    !found
  in
  Alcotest.(check bool) "used heuristic fallback" true (Engine.used_fallback res bid)

let assertion_narrowing_through_branch () =
  let src =
    "int main(int n, int s) {\n\
     int x = n;\n\
     if (x < 0) { x = 0; }\n\
     if (x > 100) { x = 100; }\n\
     if (x > 200) { return 1; }\n\
     return 0; }"
  in
  let res = Helpers.analyze_main src in
  (* the third test is decided: x <= 100 < 200 *)
  let probs = Hashtbl.fold (fun _ p acc -> p :: acc) res.Engine.branch_probs [] in
  Alcotest.(check bool) "some branch has probability 0" true
    (List.exists (fun p -> p < 1e-9) probs)

let unreachable_code_probability_zero () =
  let src =
    "int main(int n, int s) { int x = 1; if (x == 2) { return 42; } return 0; }"
  in
  let res = Helpers.analyze_main src in
  (* one block must be unexecuted *)
  Alcotest.(check bool) "has unreachable block" true
    (Array.exists not res.Engine.visited);
  let bid =
    let found = ref (-1) in
    Ir.iter_blocks res.Engine.fn (fun b ->
        match b.Ir.term with Ir.Br _ -> found := b.Ir.bid | _ -> ());
    !found
  in
  Helpers.check_prob "P(x==2)" 0.0 (Helpers.branch_probability res bid)

let quota_widens_to_bottom () =
  (* a non-inductive loop variable (mixed increments signs) must end ⊥ *)
  let src =
    "int main(int n, int s) {\n\
     int x = 0;\n\
     for (int i = 0; i < 100; i++) {\n\
     if (i % 2 == 0) { x = x + 3; } else { x = x - 1; }\n\
     }\n\
     return x; }"
  in
  let res = Helpers.analyze_main src in
  Alcotest.(check bool) "x widened to bottom" true
    (Value.is_bottom (Helpers.last_version res "x")
    ||
    (* the φ specifically *)
    Array.exists Value.is_bottom res.Engine.values)

let copy_is_symbolic_singleton () =
  let res = Helpers.analyze_main "int main(int n, int s) { int x = n; return x; }" in
  match Value.as_copy (Helpers.last_version res "x") with
  | Some v -> Alcotest.(check string) "copies n" "n" v.Vrp_ir.Var.base
  | None -> Alcotest.fail "x must be a symbolic copy of n"

let constant_via_both_arms () =
  let res =
    Helpers.analyze_main
      "int main(int n, int s) { int x; if (n > 0) { x = 21 * 2; } else { x = 42; } return x; }"
  in
  Alcotest.(check (option int)) "x = 42" (Some 42)
    (Value.as_constant (Helpers.last_version res "x"))

let evaluation_counter_positive () =
  let res = Helpers.analyze_main figure2 in
  Alcotest.(check bool) "counted evaluations" true (res.Engine.evaluations > 0)

let no_assertions_ablation_loses_precision () =
  let src =
    "int main(int n, int s) {\n\
     int x = n;\n\
     if (x < 0) { x = 0; }\n\
     if (x > 100) { x = 100; }\n\
     if (x > 200) { return 1; }\n\
     return 0; }"
  in
  let with_a = Helpers.analyze_main src in
  let without_a =
    Helpers.analyze_main
      ~config:{ Engine.default_config with Engine.use_assertions = false }
      src
  in
  let decided res =
    Hashtbl.fold (fun _ p acc -> acc || p < 1e-9 || p > 1.0 -. 1e-9) res.Engine.branch_probs false
  in
  Alcotest.(check bool) "assertions decide a branch" true (decided with_a);
  Alcotest.(check bool) "without assertions nothing is decided" false (decided without_a)

let numeric_only_drops_symbolic_facts () =
  let src =
    "int main(int n, int s) { int x = n; if (x > 10) { x = 10; } if (x > 50) { return 1; } \
     return 0; }"
  in
  let sym = Helpers.analyze_main src in
  let num = Helpers.analyze_main ~config:Engine.numeric_only_config src in
  let count_decided res =
    Hashtbl.fold
      (fun _ p acc -> if p < 1e-9 || p > 1.0 -. 1e-9 then acc + 1 else acc)
      res.Engine.branch_probs 0
  in
  Alcotest.(check bool) "symbolic decides more branches" true
    (count_decided sym > count_decided num)

let derivation_dependency_retriggers () =
  (* The loop bound is a clamped unknown: when its range refines, the
     derived φ must be re-derived (registered dependency). *)
  let src =
    "int main(int n, int s) {\n\
     int bound = 10;\n\
     if (n > 0) { bound = 10; }\n\
     int i;\n\
     for (i = 0; i < bound; i++) { }\n\
     return i; }"
  in
  let res = Helpers.analyze_main src in
  Helpers.check_prob "P(i<bound=10)" (10.0 /. 11.0) (Helpers.prob_of_branch_on res "i")

let ssa_first_worklist_agrees () =
  (* both worklist disciplines must reach the same certain conclusions *)
  let src = Vrp_evaluation.Figures.figure2_source in
  let flow = Helpers.analyze_main src in
  let ssa_first =
    Helpers.analyze_main ~config:{ Engine.default_config with Engine.flow_first = false } src
  in
  Hashtbl.iter
    (fun bid p ->
      match Hashtbl.find_opt ssa_first.Engine.branch_probs bid with
      | Some p' -> Helpers.check_prob ~eps:1e-6 "same probabilities" p p'
      | None -> Alcotest.fail "missing branch under ssa-first")
    flow.Engine.branch_probs

let tiny_quota_still_sound () =
  (* an absurdly small quota must degrade to ⊥/heuristics, never crash or
     produce certainties that contradict execution *)
  let src = Vrp_evaluation.Figures.figure2_source in
  let res = Helpers.analyze_main ~config:{ Engine.default_config with Engine.eval_quota = 1 } src in
  let observed =
    (Vrp_profile.Interp.run (Helpers.compile src).Vrp_core.Pipeline.ssa ~args:[ 0; 0 ])
      .Vrp_profile.Interp.profile
  in
  Hashtbl.iter
    (fun bid p ->
      if (p <= 0.0 || p >= 1.0) && not (Engine.used_fallback res bid) then begin
        match
          Vrp_profile.Interp.observed_prob observed (res.Engine.fn.Ir.fname, bid)
        with
        | Some actual when Float.abs (actual -. p) > 1e-9 ->
          Alcotest.failf "unsound certainty under tiny quota: B%d" bid
        | _ -> ()
      end)
    res.Engine.branch_probs

let termination_on_suite () =
  (* engine must reach a fixed point on every benchmark in bounded work *)
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let c = Helpers.compile b.source in
      List.iter
        (fun fn ->
          let res = Engine.analyze fn in
          let size = Ir.fn_size fn in
          if res.Engine.evaluations > 600 * size then
            Alcotest.failf "%s/%s: %d evaluations for %d instructions" b.name fn.Ir.fname
              res.Engine.evaluations size)
        c.Vrp_core.Pipeline.ssa.Ir.fns)
    Vrp_suite.Suite.benchmarks

(* --- Edge slots, on hand-built IR ---

   Two CFGs over one parameter [n] in [0:9], both ending in
   [B3: m = φ(B1: 10, B2: 20); return m]. *)

let hand_var id base : Var.t = { Var.id; base; version = 0; ty = Vrp_lang.Ast.Tint }
let hand_n = hand_var 0 "n"
let hand_m = hand_var 1 "m"

let hand_fn b0_term b1_term =
  let join = [ Ir.Def (hand_m, Ir.Phi [ (1, Ir.Cint 10); (2, Ir.Cint 20) ]) ] in
  let blocks =
    [ ([], b0_term); ([], b1_term); ([], Ir.Jump 3); (join, Ir.Ret (Some (Ir.Ovar hand_m))) ]
  in
  let fn =
    {
      Ir.fname = "main";
      ret_ty = Vrp_lang.Ast.Tint;
      params = [ hand_n ];
      blocks =
        Array.of_list
          (List.mapi (fun bid (instrs, term) -> { Ir.bid; instrs; term; preds = [] }) blocks);
      nvars = 2;
      local_arrays = [];
    }
  in
  Ir.recompute_preds fn;
  let n_range = Srange.numeric ~p:1.0 (Vrp_ranges.Progression.make 0 9 1) in
  Engine.analyze ~param_values:[ Value.of_ranges [ n_range ] ] fn

let hand_br k tdst fdst =
  Ir.Br { rel = Vrp_lang.Ast.Lt; ba = Ir.Ovar hand_n; bb = Ir.Cint k; tdst; fdst }

(* Exact probabilities of a value's ranges, with their shapes. *)
let exact_ranges (v : Value.t) =
  match v with
  | Value.Ranges rs ->
    String.concat " "
      (List.map
         (fun (r : Srange.t) ->
           Printf.sprintf "%.17g[%s:%s:%d]" r.Srange.p (Vrp_ranges.Sym.to_string r.Srange.lo)
             (Vrp_ranges.Sym.to_string r.Srange.hi) r.Srange.stride)
         rs)
  | Value.Top | Value.Bottom -> Value.to_string v

let check_branches res expected =
  Alcotest.(check (list (pair int string)))
    "branch probabilities" expected
    (List.filter_map
       (fun bid ->
         Option.map (fun p -> (bid, Printf.sprintf "%.17g" p)) (Engine.branch_prob res bid))
       [ 0; 1; 2; 3 ])

let br_with_coinciding_targets () =
  (* B0: n < 5 ? B1 : B2;  B1: n < 3 ? B3 : B3. Both of B1's edges share
     one slot, so the later write (the false edge, 0.7) is the edge's
     probability, and B1's in-edge to the φ weighs 0.5 * 0.7 against B2's
     0.5. *)
  let res = hand_fn (hand_br 5 1 2) (hand_br 3 3 3) in
  check_branches res [ (0, "0.5"); (1, "0.29999999999999999") ];
  Alcotest.(check string)
    "m" "0.41176470588235292[10:10:0] 0.58823529411764708[20:20:0]"
    (exact_ranges res.Engine.values.(hand_m.Var.id));
  Alcotest.(check int) "evaluations" 5 res.Engine.evaluations;
  Alcotest.(check (array bool)) "visited" [| true; true; true; true |] res.Engine.visited

let phi_in_edge_never_executes () =
  (* B0: n < 20 ? B1 : B2 is one-way, so B2 -> B3 never executes and the φ
     sees only B1's argument. *)
  let res = hand_fn (hand_br 20 1 2) (Ir.Jump 3) in
  check_branches res [ (0, "1") ];
  Alcotest.(check string) "m" "1[10:10:0]" (exact_ranges res.Engine.values.(hand_m.Var.id));
  Alcotest.(check int) "evaluations" 2 res.Engine.evaluations;
  Alcotest.(check (array bool)) "visited" [| true; true; false; true |] res.Engine.visited

let suite =
  ( "engine",
    [
      tc "paper figure 4: probabilities" `Quick paper_figure4_probabilities;
      tc "paper figure 4: ranges" `Quick paper_figure4_ranges;
      tc "derive: up with <" `Quick derive_up_lt;
      tc "derive: up with <=" `Quick derive_up_le;
      tc "derive: down" `Quick derive_down;
      tc "derive: strided" `Quick derive_strided;
      tc "derive: while form" `Quick derive_while_form;
      tc "derive: multiple increments" `Quick derive_multi_increment;
      tc "derive: interprocedural bound" `Quick derive_interproc_bound;
      tc "derive: unknown bound falls back" `Quick derive_symbolic_bound_falls_back;
      tc "assertions narrow through branches" `Quick assertion_narrowing_through_branch;
      tc "unreachable code has probability 0" `Quick unreachable_code_probability_zero;
      tc "quota widens non-inductive vars" `Quick quota_widens_to_bottom;
      tc "copies are symbolic singletons" `Quick copy_is_symbolic_singleton;
      tc "constants through both arms" `Quick constant_via_both_arms;
      tc "evaluation counter" `Quick evaluation_counter_positive;
      tc "ablation: assertions" `Quick no_assertions_ablation_loses_precision;
      tc "ablation: numeric only" `Quick numeric_only_drops_symbolic_facts;
      tc "derivation dependency retriggers" `Quick derivation_dependency_retriggers;
      tc "ssa-first worklist agrees" `Quick ssa_first_worklist_agrees;
      tc "tiny quota still sound" `Quick tiny_quota_still_sound;
      tc "termination within budget on suite" `Quick termination_on_suite;
      tc "edge slots: Br with coinciding targets" `Quick br_with_coinciding_targets;
      tc "edge slots: phi in-edge never executes" `Quick phi_in_edge_never_executes;
    ] )
