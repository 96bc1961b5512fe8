(** Supervision and resume tests: deadlines contain injected hangs
    (demoting the function, not the batch), an interrupted batch re-run on
    the same disk cache resumes from its file records and is byte-identical
    to an uninterrupted run, and the batch exit-code policy is pinned. *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Batch = Vrp_sched.Batch
module Supervisor = Vrp_sched.Supervisor
module Summary_cache = Vrp_cache.Summary_cache

let tc = Alcotest.test_case

let srcs =
  [
    ( "one.mc",
      {|
int f(int x) { if (x > 10) { return 1; } return 0; }
int main(int n, int s) {
  int t = 0;
  for (int i = 0; i < n; i++) { t = t + f(i); }
  return t;
}
|}
    );
    ( "two.mc",
      {|
int g(int x) { int y = x; while (y > 0) { y = y - 2; } return y; }
int main(int n, int s) { return g(n); }
|}
    );
    ( "three.mc",
      {|
int h(int a, int b) { if (a < b) { return a; } return b; }
int main(int n, int s) { return h(n, s) + h(s, n); }
|}
    );
  ]

let temp_dir () =
  let path = Filename.temp_file "vrpsup" "" in
  Sys.remove path;
  path

(* A store over [dir], opened as a new process would open it. *)
let reopen dir = Summary_cache.create ~disk_dir:dir ()

let file_hits cache = (Summary_cache.counters cache).Summary_cache.file_hits

let reference = lazy (Batch.render (Batch.analyze_sources ~jobs:1 srcs))

(* --- Deadlines --- *)

let deadline_contains_hang () =
  (* An injected hang checks its deadline forever; the deadline must cut
     it and the escalation ladder must demote exactly that function. *)
  List.iter
    (fun jobs ->
      let config =
        { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
      in
      let results = Batch.analyze_sources ~config ~within_ms:150 ~jobs srcs in
      let hung = List.find (fun (r : Batch.file_result) -> r.Batch.name = "one.mc") results in
      Alcotest.(check (list (pair string string)))
        (Printf.sprintf "jobs=%d: f demoted with a deterministic reason" jobs)
        [ ("f", "deadline exceeded") ]
        hung.Batch.demoted;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: the file itself survives" jobs)
        true (hung.Batch.error = None);
      List.iter
        (fun (r : Batch.file_result) ->
          if r.Batch.name <> "one.mc" then
            Alcotest.(check (list (pair string string)))
              (r.Batch.name ^ ": untouched") [] r.Batch.demoted)
        results)
    [ 1; Helpers.test_jobs ]

let hung_run_is_deterministic () =
  (* The demotion reason carries no wall-clock numbers, so the whole
     report is byte-identical across parallelism. *)
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
  in
  let run jobs = Batch.render (Batch.analyze_sources ~config ~within_ms:150 ~jobs srcs) in
  Alcotest.(check string) "hung run: jobs=N == jobs=1" (run 1) (run Helpers.test_jobs)

let deadline_counters_move () =
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
  in
  let before = Supervisor.counters () in
  ignore (Batch.analyze_sources ~config ~within_ms:150 ~jobs:1 srcs);
  let c = Supervisor.counters () in
  Alcotest.(check int) "one deadline hit" 1 (c.Supervisor.deadline_hits - before.Supervisor.deadline_hits);
  Alcotest.(check int) "the hung task gave up" 1 (c.Supervisor.gave_up - before.Supervisor.gave_up)

let unsupervised_results_unaffected () =
  (* Supervision with a generous deadline is a no-op on results. *)
  let rendered =
    Batch.render (Batch.analyze_sources ~within_ms:60_000 ~jobs:Helpers.test_jobs srcs)
  in
  Alcotest.(check string) "supervised == plain" (Lazy.force reference) rendered

(* --- Resume: file records in the disk cache --- *)

let resume_skips_completed_files () =
  let dir = temp_dir () in
  (* interrupted run: only the first file completed *)
  let first = reopen dir in
  ignore (Batch.analyze_sources ~cache:first ~jobs:1 [ List.hd srcs ]);
  Summary_cache.close first;
  (* resumed run: serves the completed file, analyses the rest *)
  let resumed = reopen dir in
  Alcotest.(check string) "resumed == uninterrupted, byte for byte"
    (Lazy.force reference)
    (Batch.render (Batch.analyze_sources ~cache:resumed ~jobs:1 srcs));
  Alcotest.(check int) "exactly the completed file was served" 1 (file_hits resumed);
  Summary_cache.close resumed;
  (* a second resume now serves everything *)
  let again = reopen dir in
  Alcotest.(check string) "full resume still byte-identical"
    (Lazy.force reference)
    (Batch.render (Batch.analyze_sources ~cache:again ~jobs:Helpers.test_jobs srcs));
  Alcotest.(check int) "every file came from its record" (List.length srcs) (file_hits again)

let changed_source_is_reanalyzed () =
  let dir = temp_dir () in
  ignore (Batch.analyze_sources ~cache:(reopen dir) ~jobs:1 srcs);
  let edited =
    List.map
      (fun (name, src) ->
        if name = "two.mc" then
          (name, Astring.String.cuts ~sep:"y - 2" src |> String.concat "y - 3")
        else (name, src))
      srcs
  in
  let cache = reopen dir in
  let results = Batch.analyze_sources ~cache ~jobs:1 edited in
  Alcotest.(check int) "only the untouched files were served" 2 (file_hits cache);
  Alcotest.(check string) "report matches a fresh run of the edited corpus"
    (Batch.render (Batch.analyze_sources ~jobs:1 edited))
    (Batch.render results)

let config_change_is_reanalyzed () =
  let dir = temp_dir () in
  ignore (Batch.analyze_sources ~cache:(reopen dir) ~jobs:1 srcs);
  let cache = reopen dir in
  ignore (Batch.analyze_sources ~config:Engine.numeric_only_config ~cache ~jobs:1 srcs);
  Alcotest.(check int) "different config serves nothing" 0 (file_hits cache)

let crashed_task_is_not_checkpointed () =
  let dir = temp_dir () in
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_file "two") }
  in
  let crashed = Batch.analyze_sources ~config ~cache:(reopen dir) ~jobs:1 srcs in
  Alcotest.(check int) "the crash cost exactly one file" 1
    (Batch.aggregate crashed).Batch.failed_files;
  (* the same run again: the clean files are served, the crash recurs *)
  let cache = reopen dir in
  let again = Batch.analyze_sources ~config ~cache ~jobs:1 srcs in
  Alcotest.(check int) "only clean completions were recorded" 2 (file_hits cache);
  Alcotest.(check string) "the crashed file was analysed again"
    (Batch.render crashed) (Batch.render again)

(* A record is keyed by source and configuration, not by file name: the
   same source under another name is served, under the name asked for. *)
let served_file_keeps_requested_name () =
  let dir = temp_dir () in
  ignore (Batch.analyze_sources ~cache:(reopen dir) ~jobs:1 [ List.hd srcs ]);
  let copy = [ ("copy.mc", snd (List.hd srcs)) ] in
  let cache = reopen dir in
  let served = Batch.analyze_sources ~cache ~jobs:1 copy in
  Alcotest.(check int) "the copy was served from the record" 1 (file_hits cache);
  Alcotest.(check (list string)) "under the requested name" [ "copy.mc" ]
    (List.map (fun (r : Batch.file_result) -> r.Batch.name) served);
  Alcotest.(check string) "report == a cold run of the copy"
    (Batch.render (Batch.analyze_sources ~jobs:1 copy))
    (Batch.render served)

(* File records live on disk only: a memory-only cache serves summaries on
   a re-run, never whole files. *)
let memory_cache_keeps_no_records () =
  let cache = Summary_cache.create () in
  ignore (Batch.analyze_sources ~cache ~jobs:1 srcs);
  Alcotest.(check string) "warm memory run == reference" (Lazy.force reference)
    (Batch.render (Batch.analyze_sources ~cache ~jobs:1 srcs));
  let c = Summary_cache.counters cache in
  Alcotest.(check int) "no file hits" 0 c.Summary_cache.file_hits;
  Alcotest.(check bool) "the re-run hit summaries" true (c.Summary_cache.hits > 0)

(* Under a deadline only the cut file goes unrecorded: its clean siblings
   are served on the next run, and the cut file is analysed (and cut)
   again, so the report repeats. *)
let deadline_run_records_clean_files () =
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
  in
  let dir = temp_dir () in
  let run () =
    let cache = reopen dir in
    let hits () = (Supervisor.counters ()).Supervisor.deadline_hits in
    let before = hits () in
    let rendered = Batch.render (Batch.analyze_sources ~config ~cache ~within_ms:150 ~jobs:1 srcs) in
    (rendered, file_hits cache, hits () - before)
  in
  let first, first_hits, first_cuts = run () in
  let again, hits, cuts = run () in
  Alcotest.(check (pair int int)) "first run: nothing served, one cut" (0, 1)
    (first_hits, first_cuts);
  Alcotest.(check (pair int int)) "re-run: the two clean files served, one cut" (2, 1)
    (hits, cuts);
  Alcotest.(check string) "the re-run repeats the report" first again

(* A demotion that is not a deadline cut is a deterministic result, so it
   is recorded: the served file keeps its demotion and the strict verdict. *)
let served_degraded_file_keeps_verdict () =
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_fn "f") }
  in
  let dir = temp_dir () in
  let computed = Batch.analyze_sources ~config ~cache:(reopen dir) ~jobs:1 srcs in
  let cache = reopen dir in
  let served = Batch.analyze_sources ~config ~cache ~jobs:1 srcs in
  Alcotest.(check int) "every file served" (List.length srcs) (file_hits cache);
  Alcotest.(check string) "served == computed" (Batch.render computed) (Batch.render served);
  Alcotest.(check int) "the demotion survives" 1 (Batch.aggregate served).Batch.demoted_fns;
  Alcotest.(check int) "strict verdict unchanged" 3 (Batch.exit_code ~strict:true served)

(* The record holds the file's whole report, and serving it adds nothing:
   a served file's diagnostics are exactly the computed file's. *)
let served_file_adds_no_diagnostic () =
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_fn "g") }
  in
  let reports results =
    List.map
      (fun (r : Batch.file_result) -> (r.Batch.name, Diag.render r.Batch.report))
      results
  in
  let dir = temp_dir () in
  let computed = Batch.analyze_sources ~config ~cache:(reopen dir) ~jobs:1 srcs in
  let cache = reopen dir in
  let served = Batch.analyze_sources ~config ~cache ~jobs:1 srcs in
  Alcotest.(check int) "every file served" (List.length srcs) (file_hits cache);
  Alcotest.(check bool) "the crash left a diagnostic" true
    (List.exists (fun (r : Batch.file_result) -> Diag.count r.Batch.report > 0) computed);
  Alcotest.(check (list (pair string string))) "served reports == computed reports"
    (reports computed) (reports served)

(* --- Exit codes --- *)

let exit_codes_pinned () =
  let healthy = Batch.analyze_sources ~jobs:1 srcs in
  Alcotest.(check int) "clean run, plain" 0 (Batch.exit_code ~strict:false healthy);
  Alcotest.(check int) "clean run, strict" 0 (Batch.exit_code ~strict:true healthy);
  let crashed =
    Batch.analyze_sources
      ~config:
        { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_file "two") }
      ~jobs:1 srcs
  in
  Alcotest.(check int) "failed file, plain" 2 (Batch.exit_code ~strict:false crashed);
  Alcotest.(check int) "failed file beats strict" 2 (Batch.exit_code ~strict:true crashed);
  let degraded =
    Batch.analyze_sources
      ~config:
        { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_fn "f") }
      ~jobs:1 srcs
  in
  Alcotest.(check int) "degraded, plain" 0 (Batch.exit_code ~strict:false degraded);
  Alcotest.(check int) "degraded, strict" 3 (Batch.exit_code ~strict:true degraded)

let suite =
  ( "supervisor",
    [
      tc "deadline: hang contained, function demoted" `Quick deadline_contains_hang;
      tc "deadline: hung run byte-identical across jobs" `Quick hung_run_is_deterministic;
      tc "deadline: counters record the hit" `Quick deadline_counters_move;
      tc "supervision: no-op on healthy runs" `Quick unsupervised_results_unaffected;
      tc "resume: skips completed, byte-identical" `Quick resume_skips_completed_files;
      tc "resume: edited source re-analyzed" `Quick changed_source_is_reanalyzed;
      tc "resume: config change re-analyzed" `Quick config_change_is_reanalyzed;
      tc "resume: crashes are never checkpointed" `Quick crashed_task_is_not_checkpointed;
      tc "resume: a served file keeps the requested name" `Quick served_file_keeps_requested_name;
      tc "resume: a memory-only cache keeps no file records" `Quick memory_cache_keeps_no_records;
      tc "resume: a deadline run records its clean files" `Quick deadline_run_records_clean_files;
      tc "resume: a served degraded file keeps its verdict" `Quick served_degraded_file_keeps_verdict;
      tc "resume: a served file adds no diagnostic" `Quick served_file_adds_no_diagnostic;
      tc "exit codes: 0 / 2 / 3 pinned" `Quick exit_codes_pinned;
    ] )
