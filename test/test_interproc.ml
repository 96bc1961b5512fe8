(** Interprocedural analysis tests: jump functions, return functions,
    recursion, reachability, cloning. *)

module Interproc = Vrp_core.Interproc
module Engine = Vrp_core.Engine
module Value = Vrp_ranges.Value
module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag

let tc = Alcotest.test_case

let ipa src = Interproc.analyze (Helpers.compile src).Vrp_core.Pipeline.ssa

let param_value t fname idx =
  match Interproc.result t fname with
  | None -> Alcotest.failf "%s not analysed" fname
  | Some res ->
    let p = List.nth res.Engine.fn.Ir.params idx in
    Engine.value res p

let constant_jump_function () =
  let t =
    ipa
      {|
int f(int x) { return x + 1; }
int main(int n, int s) { return f(41); }
|}
  in
  Alcotest.(check (option int)) "x = 41" (Some 41) (Value.as_constant (param_value t "f" 0))

let merged_jump_functions () =
  let t =
    ipa
      {|
int f(int x) { return x; }
int main(int n, int s) { return f(10) + f(20); }
|}
  in
  let v = param_value t "f" 0 in
  Alcotest.(check bool) "contains both" true
    (Helpers.contains_int v 10 && Helpers.contains_int v 20);
  Alcotest.(check (option int)) "not a single constant" None (Value.as_constant v)

let return_ranges_flow_back () =
  let t =
    ipa
      {|
int pick(int c) {
  if (c > 0) { return 3; }
  return 7;
}
int main(int n, int s) {
  int v = pick(n);
  if (v > 10) { return 1; }
  return 0;
}
|}
  in
  let res = Option.get (Interproc.result t "main") in
  (* v in {3,7}: the v > 10 test is decided false *)
  let decided =
    Hashtbl.fold (fun _ p acc -> acc || p < 1e-9) res.Engine.branch_probs false
  in
  Alcotest.(check bool) "v > 10 decided impossible" true decided

let unknown_args_stay_bottom () =
  let t =
    ipa
      {|
int f(int x) { return x; }
int main(int n, int s) { return f(n); }
|}
  in
  Alcotest.(check bool) "param is bottom" true (Value.is_bottom (param_value t "f" 0))

let recursion_terminates () =
  let t =
    ipa
      {|
int fact(int k) {
  if (k <= 1) { return 1; }
  return k * fact(k - 1);
}
int main(int n, int s) { return fact(10); }
|}
  in
  Alcotest.(check bool) "bounded rounds" true (t.Interproc.rounds <= Interproc.default_max_rounds);
  match Interproc.result t "fact" with
  | Some _ -> ()
  | None -> Alcotest.fail "fact must be analysed"

let unreachable_functions_skipped () =
  let t =
    ipa
      {|
int dead(int x) { return x; }
int main(int n, int s) { return n; }
|}
  in
  Alcotest.(check bool) "dead not analysed" true (Interproc.result t "dead" = None)

let call_through_chain () =
  (* constants should survive two levels of calls *)
  let t =
    ipa
      {|
int inner(int x) { return x * 2; }
int outer(int x) { return inner(x); }
int main(int n, int s) { return outer(21); }
|}
  in
  Alcotest.(check (option int)) "inner sees 21" (Some 21)
    (Value.as_constant (param_value t "inner" 0));
  let res = Option.get (Interproc.result t "main") in
  Alcotest.(check (option int)) "main's return is 42" (Some 42)
    (Value.as_constant res.Engine.return_value)

let proto_validation_decided () =
  (* the flagship interprocedural + symbolic case from the suite *)
  let b = Option.get (Vrp_suite.Suite.find "proto") in
  let t = ipa b.Vrp_suite.Suite.source in
  let res = Option.get (Interproc.result t "validate") in
  Ir.iter_blocks res.Engine.fn (fun blk ->
      match blk.Ir.term with
      | Ir.Br _ -> (
        match Engine.branch_prob res blk.Ir.bid with
        | Some p -> Helpers.check_prob "validate branch impossible" 0.0 p
        | None -> Alcotest.fail "missing probability")
      | Ir.Jump _ | Ir.Ret _ -> ())

let symbolic_does_not_leak () =
  (* callee parameter values must be purely numeric or bottom *)
  let b = Option.get (Vrp_suite.Suite.find "qsort") in
  let t = ipa b.Vrp_suite.Suite.source in
  Hashtbl.iter
    (fun _ (res : Engine.t) ->
      List.iter
        (fun (p : Vrp_ir.Var.t) ->
          match Engine.value res p with
          | Value.Ranges rs ->
            if not (List.for_all Vrp_ranges.Srange.is_numeric rs) then
              Alcotest.failf "symbolic parameter leaked into %s" res.Engine.fn.Ir.fname
          | Value.Top | Value.Bottom -> ())
        res.Engine.fn.Ir.params)
    t.Interproc.results

(* --- cloning --- *)

let clone_source =
  {|
int work(int mode, int reps) {
  int acc = 0;
  for (int i = 0; i < reps; i++) {
    if (mode > 4) { acc = acc + 2; } else { acc = acc + 1; }
  }
  return acc;
}
int main(int n, int s) {
  return work(1, 10) + work(9, 100);
}
|}

let cloning_specialises () =
  let ssa = (Helpers.compile clone_source).Vrp_core.Pipeline.ssa in
  let t = Interproc.analyze ssa in
  let cloned = Vrp_core.Clone.run ssa t in
  Alcotest.(check int) "two clones" 2 cloned.Vrp_core.Clone.clones_made;
  let t' = Interproc.analyze cloned.Vrp_core.Clone.program in
  (* each clone's mode branch is decided one way *)
  let decided_dirs = ref [] in
  Hashtbl.iter
    (fun cname origin ->
      if String.equal origin "work" then begin
        match Interproc.result t' cname with
        | None -> Alcotest.failf "clone %s not analysed" cname
        | Some res ->
          Hashtbl.iter
            (fun _bid p ->
              if p < 1e-9 then decided_dirs := false :: !decided_dirs
              else if p > 1.0 -. 1e-9 then decided_dirs := true :: !decided_dirs)
            res.Engine.branch_probs
      end)
    cloned.Vrp_core.Clone.origin_of;
  Alcotest.(check bool) "one clone decides true, the other false" true
    (List.mem true !decided_dirs && List.mem false !decided_dirs)

let cloned_program_still_runs () =
  let ssa = (Helpers.compile clone_source).Vrp_core.Pipeline.ssa in
  let t = Interproc.analyze ssa in
  let cloned = Vrp_core.Clone.run ssa t in
  let before = Vrp_profile.Interp.run ssa ~args:[ 0; 0 ] in
  let after = Vrp_profile.Interp.run cloned.Vrp_core.Clone.program ~args:[ 0; 0 ] in
  match (before.Vrp_profile.Interp.ret, after.Vrp_profile.Interp.ret) with
  | Vrp_profile.Interp.Vint a, Vrp_profile.Interp.Vint b ->
    Alcotest.(check int) "cloning preserves semantics" a b
  | _ -> Alcotest.fail "int returns expected"

(* --- Reuse across rounds ---

   [leaf_source] settles in steps. Round 1 analyses [leaf] with ⊥
   parameters; round 2 gives it x = 41 while [main] still reads leaf's ⊥
   return; round 3 feeds main leaf's new return 42; round 4 changes
   nothing and the environments converge. *)

let leaf_source = {|
int leaf(int x) { return x + 1; }
int main(int n, int s) { return leaf(41); }
|}

(* A counting [analyze_fn]: per function, the number of real engine runs
   and the result of the latest one. Domain-safe, for pooled waves. *)
let counting inner =
  let lock = Mutex.create () and runs = Hashtbl.create 16 in
  let analyze_fn : Interproc.analyze_fn =
   fun ~config ~report ~call_oracle ~param_values fn ->
    let res = inner ~config ~report ~call_oracle ~param_values fn in
    Mutex.protect lock (fun () ->
        let n = Option.fold ~none:0 ~some:fst (Hashtbl.find_opt runs fn.Ir.fname) in
        Hashtbl.replace runs fn.Ir.fname (n + 1, res));
    res
  in
  (analyze_fn, runs)

let runs_of runs name = Option.fold ~none:0 ~some:fst (Hashtbl.find_opt runs name)

let counted_ipa ?max_rounds src =
  let analyze_fn, runs = counting Interproc.default_analyze_fn in
  let t =
    Interproc.analyze ?max_rounds ~analyze_fn (Helpers.compile src).Vrp_core.Pipeline.ssa
  in
  (t, runs)

let leaf_skips_round_three () =
  let per_round name =
    List.map (fun max_rounds -> runs_of (snd (counted_ipa ~max_rounds leaf_source)) name) [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "leaf runs after rounds 1, 2, 3" [ 1; 2; 2 ] (per_round "leaf");
  (* main's callee answer is still ⊥ in round 2, then becomes 42 *)
  Alcotest.(check (list int)) "main runs after rounds 1, 2, 3" [ 1; 1; 2 ] (per_round "main")

let reused_result_is_the_same_value () =
  let t, runs = counted_ipa leaf_source in
  Alcotest.(check int) "leaf ran twice in four rounds" 2 (runs_of runs "leaf");
  Alcotest.(check bool) "final leaf result is its round-2 run" true
    (Option.get (Interproc.result t "leaf") == snd (Hashtbl.find runs "leaf"))

(* Rounds and convergence as measured before reuse existed: reuse never
   changes what a round computes, only whether the engine recomputes it. *)
let rounds_and_convergence_unchanged () =
  let t = ipa leaf_source in
  Alcotest.(check (pair int bool)) "leaf program" (4, true) (t.Interproc.rounds, t.Interproc.converged);
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      let t = ipa b.Vrp_suite.Suite.source in
      let rounds = if String.equal b.Vrp_suite.Suite.name "proto" then 3 else 2 in
      Alcotest.(check (pair int bool)) b.Vrp_suite.Suite.name (rounds, true)
        (t.Interproc.rounds, t.Interproc.converged))
    Vrp_suite.Suite.benchmarks

(* A reused result replays its run's diagnostics: [leaf], whose every run
   notes an injected fault, notes it once per round, although the engine
   ran it in only two of them. *)
let reuse_replays_diagnostics () =
  let analyze_fn, runs = counting Interproc.default_analyze_fn in
  let config = { Engine.default_config with Engine.fault = Some (Diag.Fault.Skew_range "leaf") } in
  let report = Diag.create () in
  let t =
    Interproc.analyze ~config ~report ~analyze_fn
      (Helpers.compile leaf_source).Vrp_core.Pipeline.ssa
  in
  Alcotest.(check int) "two real leaf runs" 2 (runs_of runs "leaf");
  Alcotest.(check int) "one fault note per round" t.Interproc.rounds
    (Diag.count_kind report Diag.Fault_injected)

let reuse_counts_independent_of_jobs () =
  let sources =
    Vrp_suite.Synth.generate ~units:24 ~seed:7 ()
    :: List.map (fun (b : Vrp_suite.Suite.benchmark) -> b.Vrp_suite.Suite.source)
         Vrp_suite.Suite.benchmarks
  in
  List.iter
    (fun src ->
      let ssa = (Helpers.compile src).Vrp_core.Pipeline.ssa in
      let counts jobs =
        let analyze_fn, runs = counting Interproc.default_analyze_fn in
        ignore (Helpers.analyze_on_pool ~analyze_fn ~jobs ssa);
        List.sort compare (Hashtbl.fold (fun name (n, _) acc -> (name, n) :: acc) runs [])
      in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "jobs 1 vs %d" Helpers.test_jobs)
        (counts 1) (counts Helpers.test_jobs))
    sources

(* [vrpc predict -b B --diagnostics --strict] — stdout, stderr and exit
   code — pinned byte for byte. The diagnostics count every round's
   report, so a reuse that dropped or doubled a replayed diagnostic shows
   here. *)
let diagnostics_golden () =
  List.iter
    (fun name ->
      let b = Option.get (Vrp_suite.Suite.find name) in
      let o =
        Vrp_server.Ops.predict
          ~opts:{ Vrp_server.Ops.default_opts with diagnostics = true; strict = true }
          ~source:b.Vrp_suite.Suite.source ()
      in
      let golden ext = Helpers.read_file (Printf.sprintf "golden/predict-%s.%s" name ext) in
      Alcotest.(check string) (name ^ " stdout") (golden "stdout") o.Vrp_server.Ops.out;
      Alcotest.(check string) (name ^ " stderr") (golden "stderr") o.Vrp_server.Ops.err;
      Alcotest.(check string) (name ^ " exit code") (golden "exit")
        (Printf.sprintf "%d\n" o.Vrp_server.Ops.code))
    [ "qsort"; "sieve"; "proto"; "calc" ]

(* [main] calls [a], [x] and [b]; [a] and [b] call each other. One wave
   discovers all three, and each has a loop that widens, so the order of
   the widening diagnostics is the order the wave merged its tasks in:
   discovery order, at any pool width, in predict as in compare. *)
let mutual_recursion_src =
  {|
int a(int n) {
  int i = 0;
  int s = 0;
  while (i < 50) { s = s + i; i = i + 1; }
  if (n > 5) { return b(n - 1) + s; }
  return s;
}
int x(int n) {
  int i = 0;
  int s = 0;
  while (i < 60) { s = s + i; i = i + 1; }
  return s + n;
}
int b(int n) {
  int i = 0;
  int s = 0;
  while (i < 70) { s = s + i; i = i + 1; }
  if (n > 3) { return a(n - 2) + s; }
  return s;
}
int main(int n, int s) { return a(n) + x(n) + b(n); }
|}

(* Functions named by [info[widened]] lines, in first-appearance order. *)
let widened_fns err =
  let prefix = "info[widened] " in
  let start = String.length prefix in
  List.fold_left
    (fun acc line ->
      match String.index_opt line '.' with
      | Some dot when String.starts_with ~prefix line ->
        let fn = String.sub line start (dot - start) in
        if List.mem fn acc then acc else acc @ [ fn ]
      | _ -> acc)
    [] (String.split_on_char '\n' err)

let diagnostics_in_discovery_order () =
  let opts = { Vrp_server.Ops.default_opts with diagnostics = true } in
  List.iter
    (fun jobs ->
      let o =
        Vrp_server.Ops.predict ~opts:{ opts with jobs } ~source:mutual_recursion_src ()
      in
      Alcotest.(check (list string))
        (Printf.sprintf "predict, jobs %d" jobs)
        [ "a"; "x"; "b" ] (widened_fns o.Vrp_server.Ops.err))
    [ 1; Helpers.test_jobs ];
  let o =
    Vrp_server.Ops.compare_predictors ~opts ~train:[ 5; 1 ] ~ref_args:[ 7; 3 ]
      ~source:mutual_recursion_src ()
  in
  Alcotest.(check (list string)) "compare" [ "a"; "x"; "b" ] (widened_fns o.Vrp_server.Ops.err)

let suite =
  ( "interproc",
    [
      tc "constant jump function" `Quick constant_jump_function;
      tc "merged jump functions" `Quick merged_jump_functions;
      tc "return ranges flow back" `Quick return_ranges_flow_back;
      tc "unknown arguments stay bottom" `Quick unknown_args_stay_bottom;
      tc "recursion terminates" `Quick recursion_terminates;
      tc "unreachable functions skipped" `Quick unreachable_functions_skipped;
      tc "constants through call chain" `Quick call_through_chain;
      tc "proto validation decided" `Quick proto_validation_decided;
      tc "no symbolic leakage across calls" `Quick symbolic_does_not_leak;
      tc "cloning specialises contexts" `Quick cloning_specialises;
      tc "cloning preserves semantics" `Quick cloned_program_still_runs;
      tc "reuse: leaf skips round 3" `Quick leaf_skips_round_three;
      tc "reuse: result physically shared" `Quick reused_result_is_the_same_value;
      tc "reuse: rounds and convergence unchanged" `Quick rounds_and_convergence_unchanged;
      tc "reuse: diagnostics replayed" `Quick reuse_replays_diagnostics;
      tc "reuse: counts independent of jobs" `Quick reuse_counts_independent_of_jobs;
      tc "predict --diagnostics --strict golden" `Quick diagnostics_golden;
      tc "diagnostics in wave discovery order" `Quick diagnostics_in_discovery_order;
    ] )
