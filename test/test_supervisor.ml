(** Supervision and checkpoint/resume tests: deadlines contain injected
    hangs (demoting the function, not the batch), retries recover flaky
    tasks, the journal survives torn writes, an interrupted batch resumed
    from its journal is byte-identical to an uninterrupted run, and the
    batch exit-code policy is pinned. *)

module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Batch = Vrp_sched.Batch
module Journal = Vrp_sched.Journal
module Supervisor = Vrp_sched.Supervisor

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

let temp_path suffix =
  let path = Filename.temp_file "vrpsup" suffix in
  Sys.remove path;
  path

let reference = lazy (Batch.render (Batch.analyze_sources ~jobs:1 srcs))

(* --- Deadlines --- *)

let deadline_contains_hang () =
  (* An injected hang beats its heartbeat forever; the monitor must cancel
     it and the escalation ladder must demote exactly that function. *)
  List.iter
    (fun jobs ->
      let config =
        { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
      in
      let results =
        Supervisor.with_supervisor
          ~policy:{ Supervisor.default_policy with deadline_ms = Some 150 }
          (fun supervisor ->
            Batch.analyze_sources ~config ~supervisor ~jobs srcs)
      in
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
  let run jobs =
    Supervisor.with_supervisor
      ~policy:{ Supervisor.default_policy with deadline_ms = Some 150 }
      (fun supervisor ->
        Batch.render (Batch.analyze_sources ~config ~supervisor ~jobs srcs))
  in
  Alcotest.(check string) "hung run: jobs=N == jobs=1" (run 1) (run Helpers.test_jobs)

let deadline_counters_move () =
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Hang_fn "f") }
  in
  Supervisor.with_supervisor
    ~policy:{ Supervisor.default_policy with deadline_ms = Some 150 }
    (fun supervisor ->
      ignore (Batch.analyze_sources ~config ~supervisor ~jobs:1 srcs);
      let c = Supervisor.counters supervisor in
      Alcotest.(check int) "one deadline hit" 1 c.Supervisor.deadline_hits;
      Alcotest.(check int) "task gave up (no retries)" 1 c.Supervisor.gave_up)

let unsupervised_results_unaffected () =
  (* Supervision with a generous deadline is a no-op on results. *)
  let rendered =
    Supervisor.with_supervisor
      ~policy:{ Supervisor.default_policy with deadline_ms = Some 60_000; retries = 2 }
      (fun supervisor ->
        Batch.render (Batch.analyze_sources ~supervisor ~jobs:Helpers.test_jobs srcs))
  in
  Alcotest.(check string) "supervised == plain" (Lazy.force reference) rendered

(* --- Retries --- *)

let retry_recovers_flaky_task () =
  (* Fails the first attempt at f, succeeds on the second: with one retry
     the batch output must be exactly the healthy reference. *)
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Flaky_fn ("f", 1)) }
  in
  let rendered, counters =
    Supervisor.with_supervisor
      ~policy:{ Supervisor.default_policy with retries = 1; backoff_ms = 1 }
      (fun supervisor ->
        let r = Batch.analyze_sources ~config ~supervisor ~jobs:1 srcs in
        (Batch.render r, Supervisor.counters supervisor))
  in
  Alcotest.(check string) "flaky task recovered" (Lazy.force reference) rendered;
  Alcotest.(check bool) "at least one retry recorded" true
    (counters.Supervisor.retry_count >= 1);
  Alcotest.(check int) "nothing gave up" 0 counters.Supervisor.gave_up

let exhausted_retries_demote () =
  (* Needs two retries but only gets one: the function is demoted, and the
     demotion reason is the injected failure, not a supervisor artifact. *)
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Flaky_fn ("f", 5)) }
  in
  let results, counters =
    Supervisor.with_supervisor
      ~policy:{ Supervisor.default_policy with retries = 1; backoff_ms = 1 }
      (fun supervisor ->
        let r = Batch.analyze_sources ~config ~supervisor ~jobs:1 srcs in
        (r, Supervisor.counters supervisor))
  in
  let hit = List.find (fun (r : Batch.file_result) -> r.Batch.name = "one.mc") results in
  (match hit.Batch.demoted with
  | [ ("f", why) ] ->
    Alcotest.(check bool) "reason names the injected fault" true
      (Astring.String.is_infix ~affix:"flaky" why)
  | d -> Alcotest.failf "expected one demotion of f, got %d" (List.length d));
  Alcotest.(check bool) "gave up after the retry budget" true
    (counters.Supervisor.gave_up >= 1)

(* --- Journal --- *)

let record name payload = { Journal.name; input_digest = "d-" ^ name; payload }

let journal_round_trips () =
  let path = temp_path ".journal" in
  let w = Journal.open_append path in
  Journal.append w (record "a" "payload-a");
  Journal.append w (record "b" "payload-b");
  Journal.close w;
  (* append-only: reopening adds, never rewrites *)
  let w2 = Journal.open_append path in
  Journal.append w2 (record "c" "payload-c");
  Journal.close w2;
  let names = List.map (fun (r : Journal.record) -> r.Journal.name) (Journal.load path) in
  Alcotest.(check (list string)) "all records, append order" [ "a"; "b"; "c" ] names;
  Sys.remove path

let torn_tail_is_ignored () =
  let path = temp_path ".journal" in
  let w = Journal.open_append path in
  Journal.append w (record "a" "payload-a");
  Journal.append w (record "b" "payload-b");
  Journal.close w;
  (* chop bytes off the end: the torn record must vanish, intact ones stay *)
  let ic = open_in_bin path in
  let whole = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub whole 0 (String.length whole - 7));
  close_out oc;
  let names = List.map (fun (r : Journal.record) -> r.Journal.name) (Journal.load path) in
  Alcotest.(check (list string)) "only the intact prefix" [ "a" ] names;
  (* garbage after a tear must not resurrect anything *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "trailing garbage bytes";
  close_out oc;
  Alcotest.(check int) "tear still ends the read" 1 (List.length (Journal.load path));
  Sys.remove path

let missing_journal_is_empty () =
  Alcotest.(check int) "no file, no records" 0
    (List.length (Journal.load (temp_path ".journal")))

(* --- Checkpoint / resume --- *)

let resume_skips_completed_files () =
  let path = temp_path ".journal" in
  (* interrupted run: the journal writer tears after one record, which also
     kills that task — exactly a process dying mid-batch *)
  let torn =
    Batch.analyze_sources ~journal:path
      ~journal_fault:(Diag.Fault.Torn_journal 1) ~jobs:1 srcs
  in
  Alcotest.(check bool) "the torn run lost work" true
    (List.exists (fun (r : Batch.file_result) -> r.Batch.error <> None) torn);
  let checkpointed = List.length (Journal.load path) in
  Alcotest.(check int) "one intact checkpoint survived the tear" 1 checkpointed;
  (* resumed run: replays the checkpoint, re-analyzes the rest *)
  let resumed = Batch.analyze_sources ~journal:path ~jobs:1 srcs in
  Alcotest.(check string) "resumed == uninterrupted, byte for byte"
    (Lazy.force reference) (Batch.render resumed);
  Alcotest.(check int) "exactly the checkpointed files were skipped"
    checkpointed
    (Batch.aggregate resumed).Batch.resumed_files;
  (* a second resume now replays everything *)
  let again = Batch.analyze_sources ~journal:path ~jobs:Helpers.test_jobs srcs in
  Alcotest.(check string) "full resume still byte-identical"
    (Lazy.force reference) (Batch.render again);
  Alcotest.(check int) "every file came from the journal" (List.length srcs)
    (Batch.aggregate again).Batch.resumed_files;
  Sys.remove path

let changed_source_is_reanalyzed () =
  let path = temp_path ".journal" in
  ignore (Batch.analyze_sources ~journal:path ~jobs:1 srcs);
  let edited =
    List.map
      (fun (name, src) ->
        if name = "two.mc" then
          (name, Astring.String.cuts ~sep:"y - 2" src |> String.concat "y - 3")
        else (name, src))
      srcs
  in
  let results = Batch.analyze_sources ~journal:path ~jobs:1 edited in
  let by_name n = List.find (fun (r : Batch.file_result) -> r.Batch.name = n) results in
  Alcotest.(check bool) "edited file re-analyzed" false (by_name "two.mc").Batch.resumed;
  Alcotest.(check bool) "untouched file replayed" true (by_name "one.mc").Batch.resumed;
  Alcotest.(check string) "report matches a fresh run of the edited corpus"
    (Batch.render (Batch.analyze_sources ~jobs:1 edited))
    (Batch.render results);
  Sys.remove path

let config_change_is_reanalyzed () =
  let path = temp_path ".journal" in
  ignore (Batch.analyze_sources ~journal:path ~jobs:1 srcs);
  let results =
    Batch.analyze_sources ~config:Engine.numeric_only_config ~journal:path ~jobs:1 srcs
  in
  Alcotest.(check int) "different config replays nothing" 0
    (Batch.aggregate results).Batch.resumed_files;
  Sys.remove path

let crashed_task_is_not_checkpointed () =
  let path = temp_path ".journal" in
  let config =
    { Engine.default_config with Engine.fault = Some (Diag.Fault.Crash_file "two") }
  in
  let crashed = Batch.analyze_sources ~config ~journal:path ~jobs:1 srcs in
  Alcotest.(check int) "the crash cost exactly one file" 1
    (Batch.aggregate crashed).Batch.failed_files;
  Alcotest.(check int) "only clean completions were checkpointed" 2
    (List.length (Journal.load path));
  (* resume without the fault: the crashed file is re-analyzed, healed *)
  let resumed = Batch.analyze_sources ~journal:path ~jobs:1 srcs in
  Alcotest.(check string) "healed resume == healthy reference"
    (Lazy.force reference) (Batch.render resumed);
  Sys.remove path

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
      tc "retry: flaky task recovered" `Quick retry_recovers_flaky_task;
      tc "retry: exhausted budget demotes" `Quick exhausted_retries_demote;
      tc "journal: records round-trip" `Quick journal_round_trips;
      tc "journal: torn tail ignored" `Quick torn_tail_is_ignored;
      tc "journal: missing file is empty" `Quick missing_journal_is_empty;
      tc "resume: skips completed, byte-identical" `Quick resume_skips_completed_files;
      tc "resume: edited source re-analyzed" `Quick changed_source_is_reanalyzed;
      tc "resume: config change re-analyzed" `Quick config_change_is_reanalyzed;
      tc "resume: crashes are never checkpointed" `Quick crashed_task_is_not_checkpointed;
      tc "exit codes: 0 / 2 / 3 pinned" `Quick exit_codes_pinned;
    ] )
