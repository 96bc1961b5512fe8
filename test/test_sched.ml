(** Scheduler-subsystem tests: the domain pool (ordering, crash
    containment) and the headline determinism
    guarantee — wavefront-parallel and batch-parallel analysis must be
    byte-identical to the sequential reference, including under injected
    per-function faults and malformed input files. *)

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Diag = Vrp_diag.Diag
module Pool = Vrp_sched.Pool
module Batch = Vrp_sched.Batch
module Suite = Vrp_suite.Suite

let tc = Alcotest.test_case

let suite_sources =
  List.map
    (fun (b : Suite.benchmark) -> (b.Suite.name ^ ".mc", b.Suite.source))
    Suite.benchmarks

(* --- Pool --- *)

let pool_preserves_task_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let input = Array.init 100 Fun.id in
          let out = Pool.map pool (fun x -> x * x) input in
          Array.iteri
            (fun i r ->
              match r with
              | Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v
              | Error e -> Alcotest.failf "slot %d raised %s" i (Printexc.to_string e))
            out))
    [ 1; Helpers.test_jobs ]

let pool_contains_crashes () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let out =
            Pool.map pool
              (fun x -> if x = 2 then failwith "poisoned task" else x + 1)
              [| 0; 1; 2; 3; 4 |]
          in
          Array.iteri
            (fun i r ->
              match (i, r) with
              | 2, Error (Failure msg) ->
                Alcotest.(check string) "reason" "poisoned task" msg
              | 2, _ -> Alcotest.fail "poisoned slot did not yield its error"
              | i, Ok v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i + 1) v
              | i, Error e -> Alcotest.failf "slot %d raised %s" i (Printexc.to_string e))
            out;
          (* the pool survives a poisoned batch *)
          match Pool.map pool succ [| 41 |] with
          | [| Ok 42 |] -> ()
          | _ -> Alcotest.fail "pool unusable after a task crashed"))
    [ 1; Helpers.test_jobs ]

let pool_clamps_jobs () =
  Pool.with_pool ~jobs:(-3) (fun pool -> Alcotest.(check int) "clamped" 1 (Pool.jobs pool))

(* A three-function call chain for the batch tests. *)
let chain_src =
  {|
int leaf(int n) { if (n > 3) { return n; } return 3; }
int mid(int n) { if (n > 1) { return leaf(n); } return leaf(n + 1); }
int main(int n, int s) { if (n > 0) { return mid(n); } return mid(s); }
|}

(* --- Wavefront determinism --- *)

(* Order-insensitive fingerprint of an interprocedural result: per-function
   branch probabilities, return range and the demotion table. *)
let ipa_signature (ipa : Interproc.t) =
  let results =
    Hashtbl.fold
      (fun name (res : Engine.t) acc ->
        let probs = ref [] in
        Ir.iter_blocks res.Engine.fn (fun b ->
            match Engine.branch_prob res b.Ir.bid with
            | Some p -> probs := (b.Ir.bid, p) :: !probs
            | None -> ());
        ( name,
          List.sort compare !probs,
          Vrp_ranges.Value.to_string res.Engine.return_value )
        :: acc)
      ipa.Interproc.results []
    |> List.sort compare
  in
  let failed =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) ipa.Interproc.failed []
    |> List.sort compare
  in
  (results, failed)

let wavefront_matches_sequential () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let c = Helpers.compile b.Suite.source in
      let ssa = c.Vrp_core.Pipeline.ssa in
      let seq = Interproc.analyze ssa in
      let par = Helpers.analyze_on_pool ~jobs:Helpers.test_jobs ssa in
      if ipa_signature par <> ipa_signature seq then
        Alcotest.failf "%s: parallel wavefront diverged from sequential" b.Suite.name)
    Suite.benchmarks

(* Everything an interprocedural result holds, in a canonical order: per
   function its values, branch probabilities and return range; the
   parameter and return environments; demotions; rounds and convergence. *)
let ipa_whole (ipa : Interproc.t) =
  let sorted tbl f = List.sort compare (Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []) in
  let value = Vrp_ranges.Value.to_string in
  ( sorted ipa.Interproc.results (fun (res : Engine.t) ->
        ( Array.to_list (Array.map value res.Engine.values),
          sorted res.Engine.branch_probs Fun.id,
          value res.Engine.return_value )),
    sorted ipa.Interproc.param_env (List.map value),
    sorted ipa.Interproc.return_env value,
    sorted ipa.Interproc.failed Fun.id,
    (ipa.Interproc.rounds, ipa.Interproc.converged) )

(* The edit workload's shape: calls-mix programs of 12 and 48 units, whose
   waves hold one task or many. The sequential runner and a two-domain
   pool give the same whole result and the same diagnostics, in order. *)
let wavefront_matches_sequential_synth () =
  let weights = { Vrp_suite.Synth.default_weights with Vrp_suite.Synth.calls = 1; affine = 1 } in
  List.iter
    (fun (units, seed) ->
      let ssa =
        (Helpers.compile (Vrp_suite.Synth.generate ~weights ~units ~seed ())).Vrp_core.Pipeline.ssa
      in
      let run ?run_tasks () =
        let report = Diag.create () in
        let ipa = Interproc.analyze ~report ?run_tasks ssa in
        (ipa_whole ipa, Diag.to_list report)
      in
      let seq = run () in
      let par = Pool.with_pool ~jobs:2 (fun pool -> run ~run_tasks:(Vrp_sched.Wavefront.runner pool) ()) in
      if fst par <> fst seq then Alcotest.failf "%d units: pooled result diverged" units;
      if snd par <> snd seq then Alcotest.failf "%d units: pooled diagnostics diverged" units)
    [ (12, 3); (12, 8); (48, 3); (48, 1995) ]

(* --- Batch determinism (the --jobs 1 vs --jobs N regression test) --- *)

let batch_render ?config ~jobs sources = Batch.render (Batch.analyze_sources ?config ~jobs sources)

let batch_is_deterministic () =
  let reference = batch_render ~jobs:1 suite_sources in
  Alcotest.(check string)
    (Printf.sprintf "jobs=%d report identical to jobs=1" Helpers.test_jobs)
    reference
    (batch_render ~jobs:Helpers.test_jobs suite_sources);
  Alcotest.(check bool) "report is non-trivial" true (String.length reference > 100)

let batch_contains_bad_files () =
  let sources =
    [ ("bad.mc", "int main( {"); ("good.mc", chain_src) ]
  in
  let results = Batch.analyze_sources ~jobs:Helpers.test_jobs sources in
  (match results with
  | [ bad; good ] ->
    Alcotest.(check bool) "bad file has an error" true (bad.Batch.error <> None);
    Alcotest.(check bool) "good file analysed" true
      (good.Batch.error = None && good.Batch.predictions <> [])
  | _ -> Alcotest.fail "expected two file results in input order");
  let a = Batch.aggregate results in
  Alcotest.(check int) "one failed file" 1 a.Batch.failed_files;
  Alcotest.(check string) "containment is deterministic"
    (batch_render ~jobs:1 sources)
    (Batch.render results)

let batch_deterministic_under_faults () =
  let config = { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_fn "mid") } in
  let sources = [ ("a.mc", chain_src); ("b.mc", chain_src) ] in
  let reference = batch_render ~config ~jobs:1 sources in
  Alcotest.(check string) "crash-injected run identical across jobs" reference
    (batch_render ~config ~jobs:Helpers.test_jobs sources);
  let results = Batch.analyze_sources ~config ~jobs:Helpers.test_jobs sources in
  List.iter
    (fun (r : Batch.file_result) ->
      Alcotest.(check bool)
        (r.Batch.name ^ ": mid demoted")
        true
        (List.exists (fun (fn, _) -> fn = "mid") r.Batch.demoted))
    results

(* Two inputs may share a name (vrpd's [batch] op takes client-chosen
   names): each keeps its own result, in input order. *)
let batch_duplicate_names_keep_own_results () =
  let loop_src = "int main(int n, int s) { int i = 0; while (i < 10) { i = i + 1; } return i; }" in
  let if_src = "int main(int n, int s) { if (n > 3) { return 1; } return 0; }" in
  let predictions source =
    match Batch.analyze_sources ~jobs:1 [ ("a.mc", source) ] with
    | [ r ] -> r.Batch.predictions
    | _ -> Alcotest.fail "expected one result"
  in
  let want = [ predictions loop_src; predictions if_src ] in
  Alcotest.(check bool) "the two programs predict differently" true
    (List.nth want 0 <> List.nth want 1);
  List.iter
    (fun jobs ->
      let got =
        List.map
          (fun (r : Batch.file_result) -> r.Batch.predictions)
          (Batch.analyze_sources ~jobs [ ("a.mc", loop_src); ("a.mc", if_src) ])
      in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d: each input its own result" jobs) true (got = want))
    [ 1; Helpers.test_jobs ]

let suite =
  ( "sched",
    [
      tc "pool: results in task order" `Quick pool_preserves_task_order;
      tc "pool: crash containment" `Quick pool_contains_crashes;
      tc "pool: jobs clamped to 1" `Quick pool_clamps_jobs;
      tc "wavefront: parallel == sequential on the suite" `Slow wavefront_matches_sequential;
      tc "batch: jobs=1 vs jobs=N byte-identical" `Slow batch_is_deterministic;
      tc "batch: malformed file contained" `Quick batch_contains_bad_files;
      tc "batch: deterministic under injected faults" `Quick batch_deterministic_under_faults;
      tc "batch: duplicate names keep their own results" `Quick batch_duplicate_names_keep_own_results;
      tc "wavefront: parallel == sequential on calls-mix programs" `Quick wavefront_matches_sequential_synth;
    ] )
