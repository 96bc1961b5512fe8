(* The suites open corpus/, golden/ and ledger-small.out by relative path,
   and dune puts them beside this executable: run there from any directory,
   as [dune runtest] does. *)
let () = Sys.chdir (Filename.dirname Sys.executable_name)

let () =
  Alcotest.run "vrp"
    [
      Test_front.suite;
      Test_ir.suite;
      Test_ranges.suite;
      Test_interp.suite;
      Test_sccp.suite;
      Test_engine.suite;
      Test_interproc.suite;
      Test_clients.suite;
      Test_predict.suite;
      Test_evaluation.suite;
      Test_util.suite;
      Test_semantics.suite;
      Test_cli_surface.suite;
      Test_diag.suite;
      Test_resilience.suite;
      Test_frequency.suite;
      Test_sched.suite;
      Test_supervisor.suite;
      Test_cache.suite;
      Test_integration.suite;
      Test_algebra.suite;
      Test_fuzz.suite;
      Test_server.suite;
      Test_obs.suite;
      Test_ledger.suite;
    ]
