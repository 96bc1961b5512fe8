(** Symbolic algebra v2 (DESIGN.md §15), measured end to end on the
    committed suite. Two properties are pinned:

    - v2 strictly increases precision: more branches proved one-way and
      more bounds checks eliminated than v1, with exact counts so any
      regression (or unreviewed improvement) fails loudly.
    - v2 never perturbs the analysis itself: the algebra runs strictly
      after the fixpoint, so the converged value assignment, fuel and
      widening counters are byte-identical with the algebra on or off,
      and branch probabilities only change by upgrading a heuristic
      fallback to a proven 0/1. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Pipeline = Vrp_core.Pipeline
module Bounds_check = Vrp_core.Bounds_check
module Value = Vrp_ranges.Value
module Suite = Vrp_suite.Suite

(* Pinned totals over [Suite.benchmarks] (22 programs, 386 bounds checks). *)
let v1_oneway = 4
let v2_oneway = 5
let v1_eliminated = 233
let v2_eliminated = 256
let total_checks = 386

(* Benchmarks where v2 proves strictly more, with the pinned deltas
   (one-way branches, eliminated checks). Everything else must be
   identical between the two configurations. *)
let improved =
  [
    ("kmp", (0, 1));
    ("affine", (1, 7));
    ("nbody", (0, 6));
    ("fir", (0, 1));
    ("rk4", (0, 4));
    ("cholesky", (0, 4));
  ]

let count_oneway (r : Engine.t) =
  Hashtbl.fold
    (fun _ p acc -> if p = 0.0 || p = 1.0 then acc + 1 else acc)
    r.Engine.branch_probs 0

let analyses algebra (ssa : Ir.program) =
  let config = { Engine.default_config with Engine.algebra } in
  let ipa = Interproc.analyze ~config ssa in
  List.filter_map
    (fun (f : Ir.fn) ->
      Interproc.result ipa f.Ir.fname |> Option.map (fun r -> (f, r)))
    ssa.Ir.fns

let measure algebra ssa =
  List.fold_left
    (fun (ow, el, tot) ((_ : Ir.fn), r) ->
      let rep = Bounds_check.analyze ~algebra ssa r in
      ( ow + count_oneway r,
        el + rep.Bounds_check.eliminated,
        tot + rep.Bounds_check.total ))
    (0, 0, 0) (analyses algebra ssa)

let per_benchmark () =
  List.map
    (fun (b : Suite.benchmark) ->
      let ssa = (Pipeline.compile b.Suite.source).Pipeline.ssa in
      (b.Suite.name, ssa, measure false ssa, measure true ssa))
    Suite.benchmarks

let v2_strictly_improves () =
  let measured = per_benchmark () in
  let tot sel which =
    List.fold_left (fun acc (_, _, m1, m2) -> acc + sel (which (m1, m2))) 0
      measured
  in
  let fst3 (a, _, _) = a and snd3 (_, b, _) = b and thd3 (_, _, c) = c in
  Alcotest.(check int) "v1 one-way branches" v1_oneway (tot fst3 fst);
  Alcotest.(check int) "v2 one-way branches" v2_oneway (tot fst3 snd);
  Alcotest.(check int) "v1 eliminated checks" v1_eliminated (tot snd3 fst);
  Alcotest.(check int) "v2 eliminated checks" v2_eliminated (tot snd3 snd);
  Alcotest.(check int) "total checks (v1 view)" total_checks (tot thd3 fst);
  Alcotest.(check int) "total checks (v2 view)" total_checks (tot thd3 snd);
  if v2_oneway <= v1_oneway then
    Alcotest.fail "v2 must prove strictly more one-way branches than v1";
  if v2_eliminated <= v1_eliminated then
    Alcotest.fail "v2 must eliminate strictly more bounds checks than v1";
  (* Per-benchmark: pinned improvements where expected, identity elsewhere. *)
  List.iter
    (fun (name, _, (ow1, el1, n1), (ow2, el2, n2)) ->
      Alcotest.(check int) (name ^ ": same checks") n1 n2;
      match List.assoc_opt name improved with
      | Some (dow, del) ->
        Alcotest.(check int) (name ^ ": one-way delta") dow (ow2 - ow1);
        Alcotest.(check int) (name ^ ": eliminated delta") del (el2 - el1)
      | None ->
        Alcotest.(check int) (name ^ ": one-way unchanged") ow1 ow2;
        Alcotest.(check int) (name ^ ": eliminated unchanged") el1 el2)
    measured

(* The algebra must not touch the fixpoint: identical values, fuel and
   widening counters either way, and probabilities may differ only by
   upgrading a v1 heuristic fallback to a proven one-way branch. *)
let v2_identical_analysis () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let ssa = (Pipeline.compile b.Suite.source).Pipeline.ssa in
      let r1 = analyses false ssa and r2 = analyses true ssa in
      List.iter2
        (fun ((f : Ir.fn), (a : Engine.t)) ((_ : Ir.fn), (b' : Engine.t)) ->
          let where what =
            Printf.sprintf "%s/%s: %s" b.Suite.name f.Ir.fname what
          in
          Alcotest.(check int) (where "fuel") a.Engine.fuel_spent
            b'.Engine.fuel_spent;
          Alcotest.(check int) (where "widenings")
            (Helpers.count_diags a Vrp_diag.Diag.Widened)
            (Helpers.count_diags b' Vrp_diag.Diag.Widened);
          Alcotest.(check int) (where "evaluations") a.Engine.evaluations
            b'.Engine.evaluations;
          Array.iteri
            (fun i v ->
              Alcotest.(check string)
                (where (Printf.sprintf "value %d" i))
                (Value.to_string v)
                (Value.to_string b'.Engine.values.(i)))
            a.Engine.values;
          Hashtbl.iter
            (fun bid p1 ->
              match Hashtbl.find_opt b'.Engine.branch_probs bid with
              | None -> Alcotest.fail (where "branch set changed")
              | Some p2 ->
                if p1 <> p2 then begin
                  if not (Engine.used_fallback a bid) then
                    Alcotest.fail
                      (where "v2 changed a branch v1 decided from ranges");
                  if p2 <> 0.0 && p2 <> 1.0 then
                    Alcotest.fail
                      (where "v2 changed a fallback to a non-proof")
                end)
            a.Engine.branch_probs)
        r1 r2)
    Suite.benchmarks

(* Pinned registry counts over one interprocedural run of each suite
   program with the algebra on: fallback branches handed to the algebra
   post-pass, and those it decided. *)
let suite_attempts = 285
let suite_proofs = 2

let attempts_and_proofs_counted () =
  let cells = List.map Vrp_obs.Metrics.counter [ "vrp_algebra_attempts_total"; "vrp_algebra_proofs_total" ] in
  let before = List.map Vrp_obs.Metrics.value cells in
  List.iter
    (fun (b : Suite.benchmark) -> ignore (analyses true (Pipeline.compile b.Suite.source).Pipeline.ssa))
    Suite.benchmarks;
  let after = List.map Vrp_obs.Metrics.value cells in
  Alcotest.(check (list int)) "attempts, proofs" [ suite_attempts; suite_proofs ]
    (List.map2 ( - ) after before)

let suite =
  ( "algebra",
    [
      Alcotest.test_case "v2 strictly improves, counts pinned" `Quick
        v2_strictly_improves;
      Alcotest.test_case "v2 leaves the fixpoint byte-identical" `Quick
        v2_identical_analysis;
      Alcotest.test_case "attempts and proofs counted" `Quick attempts_and_proofs_counted;
    ] )
