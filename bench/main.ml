(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, runs the ablation sweeps DESIGN.md calls out, and times the
   core phases with Bechamel.

   Usage:
     bench/main.exe                 run everything (figures + ablations + perf)
     bench/main.exe fig4            the worked example (paper Figure 4)
     bench/main.exe fig5            expression evaluations vs program size
     bench/main.exe fig6            evaluation sub-operations vs program size
     bench/main.exe fig7            SPECint-style accuracy curves
     bench/main.exe fig8            SPECfp-style accuracy curves
     bench/main.exe ablate-r        range-budget sweep (R = 1..16)
     bench/main.exe ablate-worklist flow-first vs SSA-first draining
     bench/main.exe ablate-assert   with/without branch assertions
     bench/main.exe ablate-derive   with/without loop derivation
     bench/main.exe ablate-trip     trip-count prior sweep
     bench/main.exe perf            Bechamel micro/macro timings
     bench/main.exe batch [--json]  batch scheduler + summary-cache throughput
     bench/main.exe server [--json] vrpd request throughput, latency percentiles,
                                    warm-cache hit rate and incremental re-analysis *)

module Figures = Vrp_evaluation.Figures
module Error_analysis = Vrp_evaluation.Error_analysis
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interp = Vrp_profile.Interp
module Suite = Vrp_suite.Suite

let header title =
  Printf.printf "\n================ %s ================\n%!" title

(* --- Figures --- *)

let fig4 () =
  header "Figure 4: worked example (paper Fig. 2) - ranges and probabilities";
  print_string (Figures.render_fig4 (Figures.fig4 ()));
  print_string
    "paper reference: x1<10 = 91%, x2>7 = 20%, y2==1 = 30%; x1 = 1[0:10:1],\n\
     y2 = { 0.8[0:7:1], 0.2[1:1:0] }\n"

let complexity_points = lazy (Figures.fig5_6 ())

let fig5 () =
  header "Figure 5: expression evaluations vs instructions";
  print_string
    (Figures.render_complexity (Lazy.force complexity_points)
       ~metric:(fun p -> p.Figures.evaluations)
       ~metric_name:"evaluations")

let fig6 () =
  header "Figure 6: evaluation sub-operations vs instructions";
  print_string
    (Figures.render_complexity (Lazy.force complexity_points)
       ~metric:(fun p -> p.Figures.sub_operations)
       ~metric_name:"sub-operations")

let fig7 () =
  header "Figure 7: SPECint-style suite accuracy (unweighted & weighted)";
  List.iter
    (fun r -> print_string (Figures.render_accuracy r))
    (Figures.accuracy ~category:Suite.Int_suite ())

let fig8 () =
  header "Figure 8: SPECfp-style suite accuracy (unweighted & weighted)";
  List.iter
    (fun r -> print_string (Figures.render_accuracy r))
    (Figures.accuracy ~category:Suite.Fp_suite ())

(* --- Ablations --- *)

(* Mean |error| over the whole suite for a given engine configuration, plus
   total expression evaluations (cost proxy). *)
let evaluate_config (config : Engine.config) : float * int =
  let errors = ref [] in
  let cost = ref 0 in
  List.iter
    (fun (b : Suite.benchmark) ->
      let c = Pipeline.compile b.Suite.source in
      let observed = (Interp.run c.Pipeline.ssa ~args:b.Suite.ref_args).Interp.profile in
      List.iter
        (fun fn ->
          let res = Engine.analyze ~config fn in
          cost := !cost + res.Engine.evaluations)
        c.Pipeline.ssa.Vrp_ir.Ir.fns;
      let prediction, _ = Pipeline.vrp_predictions ~config c.Pipeline.ssa in
      errors :=
        Error_analysis.mean_error ~weighted:false
          (Error_analysis.branch_errors ~observed prediction)
        :: !errors)
    Suite.benchmarks;
  (Vrp_util.Stats.mean !errors, !cost)

let ablate_r () =
  header "Ablation: range budget R (paper fixes R = 4)";
  Printf.printf "  %4s %18s %16s\n" "R" "mean |error| (pp)" "evaluations";
  List.iter
    (fun r ->
      Vrp_ranges.Config.with_max_ranges r (fun () ->
          let err, cost = evaluate_config Engine.default_config in
          Printf.printf "  %4d %18.2f %16d\n%!" r err cost))
    [ 1; 2; 4; 8; 16 ]

let ablate_worklist () =
  header "Ablation: worklist discipline (paper prefers the FlowWorkList)";
  List.iter
    (fun flow_first ->
      let err, cost = evaluate_config { Engine.default_config with flow_first } in
      Printf.printf "  %-10s mean |error| = %.2f pp, evaluations = %d\n%!"
        (if flow_first then "flow-first" else "ssa-first")
        err cost)
    [ true; false ]

let ablate_assert () =
  header "Ablation: branch assertions (paper 3.8)";
  List.iter
    (fun use_assertions ->
      let err, cost = evaluate_config { Engine.default_config with use_assertions } in
      Printf.printf "  %-14s mean |error| = %.2f pp, evaluations = %d\n%!"
        (if use_assertions then "with-asserts" else "no-asserts")
        err cost)
    [ true; false ]

let ablate_derive () =
  header "Ablation: loop-carried derivation (paper 3.6)";
  (* Micro-study first: counted loops of increasing trip count, analysed
     with an unlimited quota. The paper: without derivation "each loop would
     execute as many times during propagation as it would at runtime". *)
  Printf.printf "  counted loop micro-study (quota = trip count + 8):\n";
  List.iter
    (fun trips ->
      let src =
        Printf.sprintf
          "int main(int n, int seed) {\n\
          \  int acc = 0;\n\
          \  for (int i = 0; i < %d; i++) { acc = (acc + i) %% 65536; }\n\
          \  return acc;\n\
           }\n"
          trips
      in
      let c = Pipeline.compile src in
      let fn = List.hd c.Pipeline.ssa.Vrp_ir.Ir.fns in
      let costs =
        List.map
          (fun use_derivation ->
            let config =
              { Engine.default_config with use_derivation; eval_quota = trips + 8 }
            in
            (Engine.analyze ~config fn).Engine.evaluations)
          [ true; false ]
      in
      match costs with
      | [ with_d; without_d ] ->
        Printf.printf "    trips=%-7d evaluations: with-derive=%-6d no-derive=%d\n%!"
          trips with_d without_d
      | _ -> ())
    [ 100; 1_000; 10_000 ];
  List.iter
    (fun use_derivation ->
      let err, cost = evaluate_config { Engine.default_config with use_derivation } in
      Printf.printf "  %-14s (default quota) mean |error| = %.2f pp, evaluations = %d\n%!"
        (if use_derivation then "with-derive" else "no-derive")
        err cost)
    [ true; false ]

let ablate_trip_prior () =
  header "Ablation: back-edge trip-count prior at loop-header phis";
  Printf.printf "  %8s %18s\n" "prior" "mean |error| (pp)";
  List.iter
    (fun trip_prior ->
      let err, _ = evaluate_config { Engine.default_config with trip_prior } in
      Printf.printf "  %8.1f %18.2f\n%!" trip_prior err)
    [ 1.0; 4.0; 10.0; 25.0; 100.0 ]

(* --- Batch-analysis throughput (scheduler + summary cache) --- *)

(* Times the parallel batch subsystem over the suite plus synthetic
   programs: sequential reference, [jobs]-wide fan-out, and cold/warm runs
   against the summary cache — cross-checking along the way that every
   variant renders byte-identically to --jobs 1. With --json, emits one
   machine-readable object (for CI artifacts) instead of the table.

   Speedup honesty: the container this runs in may well have a single core
   (CI runners often do); the [cores] field records what was available so a
   speedup of ~1.0 on a 1-core box is not mistaken for a scheduler bug. *)
let batch_bench ~json () =
  let module Batch = Vrp_sched.Batch in
  let module Supervisor = Vrp_sched.Supervisor in
  let module Summary_cache = Vrp_cache.Summary_cache in
  let sources =
    List.map
      (fun (b : Suite.benchmark) -> (b.Suite.name ^ ".mc", b.Suite.source))
      Suite.benchmarks
    @ List.init 6 (fun i ->
          ( Printf.sprintf "synth%02d.mc" i,
            Vrp_suite.Synth.generate ~units:(12 + (6 * i)) ~seed:(4242 + i) () ))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let jobs = 4 in
  let reference, seq_s = time (fun () -> Batch.analyze_sources ~jobs:1 sources) in
  let parallel, par_s = time (fun () -> Batch.analyze_sources ~jobs sources) in
  if Batch.render parallel <> Batch.render reference then
    failwith "batch bench: parallel run diverged from the sequential reference";
  let cache = Summary_cache.create () in
  let _, cold_s = time (fun () -> Batch.analyze_sources ~cache ~jobs sources) in
  let warm, warm_s = time (fun () -> Batch.analyze_sources ~cache ~jobs sources) in
  if Batch.render warm <> Batch.render reference then
    failwith "batch bench: warm-cache run diverged from fresh analysis";
  (* Supervised pass: a generous deadline that healthy analyses never hit,
     cross-checked byte-identical — supervision must be a no-op on results. *)
  let sup_policy =
    { Supervisor.default_policy with deadline_ms = Some 30_000; retries = 1 }
  in
  let (supervised, sup_counters), sup_s =
    time (fun () ->
        Supervisor.with_supervisor ~policy:sup_policy (fun supervisor ->
            let r = Batch.analyze_sources ~supervisor ~jobs sources in
            (r, Supervisor.counters supervisor)))
  in
  if Batch.render supervised <> Batch.render reference then
    failwith "batch bench: supervised run diverged from the sequential reference";
  let agg = Batch.aggregate reference in
  let c = Summary_cache.counters cache in
  let hit_rate =
    float_of_int c.Summary_cache.hits
    /. float_of_int (max 1 (c.Summary_cache.hits + c.Summary_cache.misses))
  in
  let fns_per_sec t =
    if t > 0.0 then float_of_int agg.Batch.functions /. t else 0.0
  in
  let speedup = if par_s > 0.0 then seq_s /. par_s else 0.0 in
  let cores = Domain.recommended_domain_count () in
  if json then
    Printf.printf
      "{\"files\": %d, \"functions\": %d, \"branches\": %d, \"jobs\": %d, \
       \"cores\": %d,\n\
      \ \"wall_s\": {\"jobs1\": %.6f, \"jobs%d\": %.6f, \"cache_cold\": %.6f, \
       \"cache_warm\": %.6f, \"supervised\": %.6f},\n\
      \ \"functions_per_sec\": {\"jobs1\": %.1f, \"jobs%d\": %.1f, \
       \"cache_warm\": %.1f},\n\
      \ \"speedup_vs_jobs1\": %.3f, \"warm_speedup_vs_jobs1\": %.3f,\n\
      \ \"cache\": {\"hits\": %d, \"disk_hits\": %d, \"misses\": %d, \
       \"invalidations\": %d, \"quarantined\": %d, \"hit_rate\": %.3f},\n\
      \ \"supervision\": {\"deadline_ms\": 30000, \"retries_allowed\": 1, \
       \"deadline_hits\": %d, \"retries\": %d, \"gave_up\": %d},\n\
      \ \"deterministic\": true}\n"
      agg.Batch.files agg.Batch.functions agg.Batch.branches jobs cores seq_s
      jobs par_s cold_s warm_s sup_s (fns_per_sec seq_s) jobs (fns_per_sec par_s)
      (fns_per_sec warm_s) speedup
      (if warm_s > 0.0 then seq_s /. warm_s else 0.0)
      c.Summary_cache.hits c.Summary_cache.disk_hits c.Summary_cache.misses
      c.Summary_cache.invalidations c.Summary_cache.quarantined hit_rate
      sup_counters.Supervisor.deadline_hits sup_counters.Supervisor.retry_count
      sup_counters.Supervisor.gave_up
  else begin
    header "Batch analysis: domain-pool scheduler + summary cache";
    Printf.printf "  corpus: %d files, %d functions, %d branches (%d cores available)\n"
      agg.Batch.files agg.Batch.functions agg.Batch.branches cores;
    Printf.printf "  %-18s %10s %16s\n" "run" "wall (s)" "functions/s";
    List.iter
      (fun (name, t) -> Printf.printf "  %-18s %10.4f %16.1f\n" name t (fns_per_sec t))
      [
        ("jobs=1", seq_s);
        (Printf.sprintf "jobs=%d" jobs, par_s);
        ("cache cold", cold_s);
        ("cache warm", warm_s);
        ("supervised", sup_s);
      ];
    Printf.printf "  speedup vs jobs=1: %.2fx parallel, %.2fx warm cache\n" speedup
      (if warm_s > 0.0 then seq_s /. warm_s else 0.0);
    Printf.printf "  %s\n" (Summary_cache.counters_line (Summary_cache.counters cache));
    Printf.printf "  supervision (30s deadline, 1 retry): %d deadline hit(s), %d retry(ies)\n"
      sup_counters.Supervisor.deadline_hits sup_counters.Supervisor.retry_count;
    Printf.printf "  all variants rendered byte-identically to jobs=1\n%!"
  end

(* --- Analysis-server throughput (vrpd request path) --- *)

(* Drives the daemon's request seam ([Server.handle]) from concurrent
   client threads — the same code path a socket connection runs, minus the
   kernel round-trip — and measures what ISSUE acceptance pins: requests
   per second, p50/p99 latency, summary-cache hit rate cold vs warm, and a
   warm-daemon incremental re-analysis of a one-function edit beating the
   cold one-shot CLI wall-clock. Every response is cross-checked
   byte-identical to the one-shot [Ops] output along the way. *)
let server_bench ~json () =
  let module Server = Vrp_server.Server in
  let module Protocol = Vrp_server.Protocol in
  let module Json = Vrp_server.Json in
  let module Ops = Vrp_server.Ops in
  (* The churn pass writes into sockets of freshly killed workers; see
     EPIPE (retried by the proxy), don't die of SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sources =
    List.map
      (fun (b : Suite.benchmark) -> (b.Suite.name ^ ".mc", b.Suite.source))
      Suite.benchmarks
  in
  (* Cold one-shot reference: what `vrpc predict FILE` costs and prints. *)
  let expected, one_shot_s =
    time (fun () ->
        List.map
          (fun (n, src) -> (n, Ops.predict ~opts:Ops.default_opts ~source:src ()))
          sources)
  in
  let jobs = 4 and clients = 8 and warm_rounds = 3 in
  let server = Server.create ~settings:{ Server.default_settings with Server.jobs } () in
  Fun.protect ~finally:(fun () -> Server.shutdown server) @@ fun () ->
  let predict_req (name, source) =
    {
      Protocol.id = 1;
      op = "predict";
      params = Json.Obj [ ("source", Json.String source); ("name", Json.String name) ];
    }
  in
  let mismatches = Atomic.make 0 in
  let check name (resp : Protocol.response) =
    let want : Ops.outcome = List.assoc name expected in
    if not (resp.Protocol.ok && resp.Protocol.out = want.Ops.out && resp.Protocol.code = want.Ops.code)
    then Atomic.incr mismatches
  in
  (* Fan [reqs] out over [clients] threads; collect per-request latencies. *)
  let run_pass_on handle reqs =
    let slices = Array.make clients [] in
    List.iteri (fun i r -> slices.(i mod clients) <- r :: slices.(i mod clients)) reqs;
    let results = Array.make clients [] in
    let threads =
      Array.mapi
        (fun i slice ->
          Thread.create
            (fun () ->
              results.(i) <-
                List.map
                  (fun (name, src) ->
                    let resp, dt = time (fun () -> handle (predict_req (name, src))) in
                    check name resp;
                    dt)
                  slice)
            ())
        slices
    in
    Array.iter Thread.join threads;
    Array.to_list results |> List.concat
  in
  let run_pass reqs = run_pass_on (Server.handle server) reqs in
  let cache_counters () =
    let r = Server.handle server { Protocol.id = 0; op = "status"; params = Json.Null } in
    let c = Option.value ~default:Json.Null (List.assoc_opt "cache" r.Protocol.data) in
    let f k = Option.value ~default:0 (Json.mem_int k c) in
    (f "hits", f "misses")
  in
  let hit_rate (h0, m0) (h1, m1) =
    let h = h1 - h0 and m = m1 - m0 in
    (h, m, float_of_int h /. float_of_int (max 1 (h + m)))
  in
  let c0 = cache_counters () in
  let cold_lat, cold_s = time (fun () -> run_pass sources) in
  let c1 = cache_counters () in
  let warm_reqs = List.concat (List.init warm_rounds (fun _ -> sources)) in
  let warm_lat, warm_s = time (fun () -> run_pass warm_reqs) in
  let c2 = cache_counters () in
  if Atomic.get mismatches > 0 then
    failwith "server bench: a daemon response diverged from the one-shot CLI";
  let cold_hits, cold_misses, cold_rate = hit_rate c0 c1 in
  let warm_hits, warm_misses, warm_rate = hit_rate c1 c2 in
  (* Observability overhead: the same warm pass with the span tracer
     capturing vs disabled. The metric counters have no off switch (their
     sharded increments are part of both sides); the toggle is the tracer,
     whose disabled path claims to cost one atomic load. Best-of-two per
     side damps scheduler noise; the budget is asserted here and the
     req/s + p99 land in the JSON so the perf gate pins them. *)
  let best_of_two f =
    let l1, t1 = time f in
    let l2, t2 = time f in
    if t1 <= t2 then (l1, t1) else (l2, t2)
  in
  let obs_off_lat, obs_off_s = best_of_two (fun () -> run_pass warm_reqs) in
  Vrp_obs.Trace.enable ~capacity:(1 lsl 18) ();
  let obs_on_lat, obs_on_s =
    Fun.protect ~finally:Vrp_obs.Trace.disable (fun () ->
        best_of_two (fun () -> run_pass warm_reqs))
  in
  let obs_spans = List.length (Vrp_obs.Trace.events ()) in
  let obs_overhead_pct =
    if obs_off_s > 0.0 then 100.0 *. (obs_on_s -. obs_off_s) /. obs_off_s
    else 0.0
  in
  (* < 5% relative, with absolute slack so a millisecond-scale pass can't
     fail on scheduler jitter alone. *)
  if obs_overhead_pct > 5.0 && obs_on_s -. obs_off_s > 0.05 then
    failwith
      (Printf.sprintf
         "server bench: tracing overhead %.1f%% exceeds the 5%% budget"
         obs_overhead_pct);
  if Atomic.get mismatches > 0 then
    failwith "server bench: a traced response diverged from the one-shot CLI";
  let percentile p lat =
    let a = Array.of_list lat in
    Array.sort compare a;
    let n = Array.length a in
    if n = 0 then 0.0
    else a.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))
  in
  let ms t = 1000.0 *. t in
  let rps n t = if t > 0.0 then float_of_int n /. t else 0.0 in
  (* Incremental re-analysis: a session submits a many-function program,
     then re-submits it with one function edited. The daemon re-runs only
     the dirty call-graph cone; everything else is a warm cache hit. *)
  let n_fns = 12 in
  let inc_src cutoff =
    let fn i k =
      Printf.sprintf
        "int f%d(int x) {\n\
        \  int acc = 0;\n\
        \  for (int i = 0; i < 40; i++) {\n\
        \    if (x > %d) acc = (acc + i * %d) %% 257; else acc = acc - 1;\n\
        \  }\n\
        \  return acc %% 16;\n\
         }\n"
        i k (i + 2)
    in
    String.concat ""
      (List.init n_fns (fun i -> fn i (if i = 0 then cutoff else 7))
      @ [
          "int main(int n, int seed) {\n  int s = 0;\n";
          String.concat ""
            (List.init n_fns (fun i -> Printf.sprintf "  s = s + f%d(n + %d);\n" i i));
          "  return s;\n}\n";
        ])
  in
  let v1 = inc_src 7 and v2 = inc_src 9 in
  let analyze_req source =
    {
      Protocol.id = 1;
      op = "analyze";
      params =
        Json.Obj
          [
            ("session", Json.String "bench");
            ("name", Json.String "inc.mc");
            ("source", Json.String source);
          ];
    }
  in
  let cold_edit, cold_edit_s =
    time (fun () -> Ops.predict ~opts:Ops.default_opts ~source:v2 ())
  in
  ignore (Server.handle server (analyze_req v1));
  let warm_edit, warm_edit_s = time (fun () -> Server.handle server (analyze_req v2)) in
  if warm_edit.Protocol.out <> cold_edit.Ops.out then
    failwith "server bench: incremental re-analysis diverged from the cold one-shot";
  let plan = Option.value ~default:Json.Null (List.assoc_opt "plan" warm_edit.Protocol.data) in
  let delta = Option.value ~default:Json.Null (List.assoc_opt "cache" warm_edit.Protocol.data) in
  let plan_n k =
    match Json.member k plan with Some (Json.List l) -> List.length l | _ -> 0
  in
  let delta_n k = Option.value ~default:0 (Json.mem_int k delta) in
  let cores = Domain.recommended_domain_count () in
  (* Fleet: the same predict workload through the front door's routing and
     proxy seam ([Fleet.handle]) over in-process socket workers — steady
     state first, then under churn with the kill-worker chaos fault firing
     mid-pass (workers crash-replaced while requests are in flight). Every
     response is still byte-checked against the one-shot CLI. *)
  let module Fleet = Vrp_server.Fleet in
  let fleet_workers = 3 and fleet_rounds = 3 and kill_every = 12 in
  let fleet_reqs = List.concat (List.init fleet_rounds (fun _ -> sources)) in
  let fleet_pass ~tag ~fault =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "vrp-bench-fleet-%d-%s" (Unix.getpid ()) tag)
    in
    let settings =
      { (Fleet.default_settings ~dir) with Fleet.size = fleet_workers; fault }
    in
    let fleet = Fleet.create ~settings ~spawner:(Fleet.in_process_spawner ()) () in
    Fun.protect
      ~finally:(fun () ->
        Fleet.shutdown fleet;
        try Unix.rmdir dir with _ -> ())
      (fun () ->
        let lat, wall = time (fun () -> run_pass_on (Fleet.handle fleet) fleet_reqs) in
        let c = Fleet.counters fleet in
        (lat, wall, c.Fleet.replaced, c.Fleet.failovers))
  in
  let fsteady_lat, fsteady_s, _, _ = fleet_pass ~tag:"steady" ~fault:None in
  let fchurn_lat, fchurn_s, fchurn_replaced, fchurn_failovers =
    fleet_pass ~tag:"churn"
      ~fault:(Some (Vrp_diag.Diag.Fault.Kill_worker kill_every))
  in
  if Atomic.get mismatches > 0 then
    failwith "server bench: a fleet response diverged from the one-shot CLI";
  (* Overload: the same predict workload pushed through a deliberately
     small admission gate at 2× its in-flight capacity. Shed requests honor
     the busy response's retry_after_ms and replay, so the section reports
     what a saturated daemon sustains — throughput, tail latency including
     the busy waits, and how much the gate shed — still byte-identical. *)
  let module Admit = Vrp_server.Admit in
  let o_capacity = 4 in
  let o_server =
    Server.create
      ~settings:
        {
          Server.default_settings with
          Server.jobs;
          Server.limits =
            {
              Admit.default_limits with
              Admit.max_inflight = o_capacity;
              max_queue = o_capacity;
              queue_wait_ms = 20;
            };
        }
      ()
  in
  let o_reqs = List.concat (List.init warm_rounds (fun _ -> sources)) in
  let o_lat, o_s, o_shed =
    Fun.protect
      ~finally:(fun () -> Server.shutdown o_server)
      (fun () ->
        let handle_busy_retry req =
          let rec go () =
            let resp = Server.handle o_server req in
            match Protocol.retry_after_ms resp with
            | Some ms ->
              Thread.delay (float_of_int (max 1 ms) /. 1000.);
              go ()
            | None -> resp
          in
          go ()
        in
        let lat, wall = time (fun () -> run_pass_on handle_busy_retry o_reqs) in
        let a = Admit.counters (Server.admit o_server) in
        (lat, wall, a.Admit.shed_requests))
  in
  if Atomic.get mismatches > 0 then
    failwith "server bench: an overloaded response diverged from the one-shot CLI";
  if json then
    Printf.printf
      "{\"requests\": %d, \"jobs\": %d, \"clients\": %d, \"cores\": %d,\n\
      \ \"wall_s\": {\"one_shot_suite\": %.6f, \"server_cold\": %.6f, \
       \"server_warm\": %.6f},\n\
      \ \"requests_per_sec\": {\"cold\": %.1f, \"warm\": %.1f},\n\
      \ \"latency_ms\": {\"cold\": {\"p50\": %.3f, \"p99\": %.3f}, \
       \"warm\": {\"p50\": %.3f, \"p99\": %.3f}},\n\
      \ \"cache\": {\"cold\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f}, \
       \"warm\": {\"hits\": %d, \"misses\": %d, \"hit_rate\": %.3f}},\n\
      \ \"incremental\": {\"functions\": %d, \"changed\": %d, \"dirty\": %d, \
       \"reused\": %d, \"cache_hits\": %d, \"cache_misses\": %d, \
       \"invalidations\": %d,\n\
      \   \"cold_one_shot_s\": %.6f, \"warm_incremental_s\": %.6f, \
       \"speedup\": %.2f, \"warm_beats_cold\": %b},\n\
      \ \"fleet\": {\"workers\": %d, \"requests\": %d, \"kill_every\": %d,\n\
      \   \"steady\": {\"requests_per_sec\": %.1f, \"p50_ms\": %.3f, \
       \"p99_ms\": %.3f},\n\
      \   \"churn\": {\"requests_per_sec\": %.1f, \"p50_ms\": %.3f, \
       \"p99_ms\": %.3f, \"workers_replaced\": %d, \"failovers\": %d}},\n\
      \ \"overload\": {\"capacity\": %d, \"clients\": %d, \"requests\": %d, \
       \"requests_per_sec\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
       \"shed\": %d, \"all_served\": true},\n\
      \ \"obs\": {\"requests\": %d, \"off\": {\"requests_per_sec\": %.1f, \
       \"p99_ms\": %.3f}, \"on\": {\"requests_per_sec\": %.1f, \"p99_ms\": \
       %.3f, \"spans\": %d}, \"overhead_pct\": %.2f, \"within_budget\": true},\n\
      \ \"byte_identical\": true}\n"
      (List.length sources) jobs clients cores one_shot_s cold_s warm_s
      (rps (List.length sources) cold_s)
      (rps (List.length warm_reqs) warm_s)
      (ms (percentile 50.0 cold_lat))
      (ms (percentile 99.0 cold_lat))
      (ms (percentile 50.0 warm_lat))
      (ms (percentile 99.0 warm_lat))
      cold_hits cold_misses cold_rate warm_hits warm_misses warm_rate
      (n_fns + 1) (plan_n "changed") (plan_n "dirty") (plan_n "reused")
      (delta_n "hits") (delta_n "misses") (delta_n "invalidations")
      cold_edit_s warm_edit_s
      (if warm_edit_s > 0.0 then cold_edit_s /. warm_edit_s else 0.0)
      (warm_edit_s < cold_edit_s)
      fleet_workers (List.length fleet_reqs) kill_every
      (rps (List.length fleet_reqs) fsteady_s)
      (ms (percentile 50.0 fsteady_lat))
      (ms (percentile 99.0 fsteady_lat))
      (rps (List.length fleet_reqs) fchurn_s)
      (ms (percentile 50.0 fchurn_lat))
      (ms (percentile 99.0 fchurn_lat))
      fchurn_replaced fchurn_failovers
      o_capacity clients (List.length o_reqs)
      (rps (List.length o_reqs) o_s)
      (ms (percentile 50.0 o_lat))
      (ms (percentile 99.0 o_lat))
      o_shed
      (List.length warm_reqs)
      (rps (List.length warm_reqs) obs_off_s)
      (ms (percentile 99.0 obs_off_lat))
      (rps (List.length warm_reqs) obs_on_s)
      (ms (percentile 99.0 obs_on_lat))
      obs_spans obs_overhead_pct
  else begin
    header "Analysis server: request throughput + incremental re-analysis";
    Printf.printf "  workload: %d predict requests over %d client threads (pool jobs=%d, %d cores)\n"
      (List.length sources) clients jobs cores;
    Printf.printf "  %-22s %10s %12s %10s %10s\n" "pass" "wall (s)" "req/s" "p50 (ms)" "p99 (ms)";
    List.iter
      (fun (name, n, t, lat) ->
        Printf.printf "  %-22s %10.4f %12.1f %10.3f %10.3f\n" name t (rps n t)
          (ms (percentile 50.0 lat))
          (ms (percentile 99.0 lat)))
      [
        ("cold (empty cache)", List.length sources, cold_s, cold_lat);
        ("warm (cache resident)", List.length warm_reqs, warm_s, warm_lat);
      ];
    Printf.printf "  cache hit rate: cold %.1f%% (%d/%d), warm %.1f%% (%d/%d)\n"
      (100.0 *. cold_rate) cold_hits (cold_hits + cold_misses)
      (100.0 *. warm_rate) warm_hits (warm_hits + warm_misses);
    Printf.printf "  one-function edit (%d functions): changed=%d dirty=%d reused=%d, cache +%d hits +%d misses +%d invalidations\n"
      (n_fns + 1) (plan_n "changed") (plan_n "dirty") (plan_n "reused")
      (delta_n "hits") (delta_n "misses") (delta_n "invalidations");
    Printf.printf "  warm incremental %.4fs vs cold one-shot %.4fs (%.2fx)\n"
      warm_edit_s cold_edit_s
      (if warm_edit_s > 0.0 then cold_edit_s /. warm_edit_s else 0.0);
    Printf.printf "  fleet (%d workers, %d requests):\n" fleet_workers
      (List.length fleet_reqs);
    List.iter
      (fun (name, t, lat) ->
        Printf.printf "  %-22s %10.4f %12.1f %10.3f %10.3f\n" name t
          (rps (List.length fleet_reqs) t)
          (ms (percentile 50.0 lat))
          (ms (percentile 99.0 lat)))
      [ ("fleet steady", fsteady_s, fsteady_lat); ("fleet churn", fchurn_s, fchurn_lat) ];
    Printf.printf
      "  churn (kill-worker:%d): %d worker(s) replaced, %d failover(s), zero lost requests\n"
      kill_every fchurn_replaced fchurn_failovers;
    Printf.printf
      "  overload (%d clients at 2x capacity %d): %10.4f %12.1f %10.3f %10.3f\n"
      clients o_capacity o_s
      (rps (List.length o_reqs) o_s)
      (ms (percentile 50.0 o_lat))
      (ms (percentile 99.0 o_lat));
    Printf.printf "  overload: %d request(s) shed then replayed via retry_after_ms, all served\n"
      o_shed;
    Printf.printf
      "  obs overhead (warm pass, best of two): tracer off %.1f req/s p99 \
       %.3fms, on %.1f req/s p99 %.3fms (%+.1f%%, %d spans captured)\n"
      (rps (List.length warm_reqs) obs_off_s)
      (ms (percentile 99.0 obs_off_lat))
      (rps (List.length warm_reqs) obs_on_s)
      (ms (percentile 99.0 obs_on_lat))
      obs_overhead_pct obs_spans;
    Printf.printf "  every response byte-identical to the one-shot CLI\n%!"
  end

(* --- Bechamel timings --- *)

let perf () =
  header "Performance (Bechamel; one Test.make per phase)";
  let open Bechamel in
  let open Toolkit in
  (* Pre-compiled inputs so the benchmarks time only the phase of interest. *)
  let qsort = Option.get (Suite.find "qsort") in
  let compiled = Pipeline.compile qsort.Suite.source in
  let main_fn = Option.get (Vrp_ir.Ir.find_fn compiled.Pipeline.ssa "main") in
  let r1 =
    Vrp_ranges.Value.of_ranges
      [
        Vrp_ranges.Srange.numeric ~p:0.7 (Vrp_ranges.Progression.make 32 256 1);
        Vrp_ranges.Srange.numeric ~p:0.3 (Vrp_ranges.Progression.make 3 21 3);
      ]
  in
  let r2 =
    Vrp_ranges.Value.of_ranges
      [
        Vrp_ranges.Srange.numeric ~p:0.6 (Vrp_ranges.Progression.make 16 100 4);
        Vrp_ranges.Srange.numeric ~p:0.4 (Vrp_ranges.Progression.make 8 8 0);
      ]
  in
  let tests =
    [
      Test.make ~name:"range-add"
        (Staged.stage (fun () -> Vrp_ranges.Value.binop Vrp_lang.Ast.Add r1 r2));
      Test.make ~name:"range-cmp-prob"
        (Staged.stage (fun () -> Vrp_ranges.Value.cmp_prob Vrp_lang.Ast.Lt r1 r2));
      Test.make ~name:"front-end-qsort"
        (Staged.stage (fun () -> Pipeline.compile qsort.Suite.source));
      Test.make ~name:"sccp-qsort-main"
        (Staged.stage (fun () -> Vrp_core.Sccp.analyze main_fn));
      Test.make ~name:"vrp-qsort-main"
        (Staged.stage (fun () -> Engine.analyze main_fn));
      Test.make ~name:"vrp-numeric-qsort-main"
        (Staged.stage (fun () -> Engine.analyze ~config:Engine.numeric_only_config main_fn));
      Test.make ~name:"ball-larus-qsort"
        (Staged.stage (fun () -> Vrp_predict.Predictor.ball_larus compiled.Pipeline.ssa));
      Test.make ~name:"interproc-vrp-qsort"
        (Staged.stage (fun () -> Vrp_core.Interproc.analyze compiled.Pipeline.ssa));
    ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let results =
    List.map
      (fun test ->
        let raw = Benchmark.all cfg instances test in
        Analyze.all ols Instance.monotonic_clock raw)
      (List.map (fun t -> Test.make_grouped ~name:"vrp" ~fmt:"%s/%s" [ t ]) tests)
  in
  List.iter
    (fun tbl ->
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "  %-34s %14.1f ns/run\n%!" name est
          | Some _ | None -> Printf.printf "  %-34s (no estimate)\n%!" name)
        tbl)
    results

(* --- Perf regression gate ---

   `gate BASELINE.json CURRENT.json` compares a committed bench snapshot
   (BENCH_batch.json / BENCH_server.json) against a fresh run: every
   throughput leaf (a number under a "requests_per_sec" or
   "functions_per_sec" key path) may not drop by more than 25%, and every
   "p99" latency leaf may not grow by more than 25%. The baseline drives
   the walk, so new metrics in the current run are ignored but a metric
   that disappeared fails the gate. *)
let gate baseline_file current_file =
  let module Json = Vrp_server.Json in
  let load file =
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Json.parse s with
    | Ok v -> v
    | Error msg -> failwith (Printf.sprintf "%s: %s" file msg)
  in
  let base = load baseline_file and cur = load current_file in
  let rec lookup path v =
    match path with
    | [] -> Some v
    | k :: rest -> Option.bind (Json.member k v) (lookup rest)
  in
  let num = function
    | Json.Int n -> Some (float_of_int n)
    | Json.Float f -> Some f
    | _ -> None
  in
  let failures = ref [] in
  let checked = ref 0 in
  let check path dir b =
    let name = String.concat "." (List.rev path) in
    match Option.bind (lookup (List.rev path) cur) num with
    | None -> failures := Printf.sprintf "%s: missing from current run" name :: !failures
    | Some c ->
      incr checked;
      let ok, verdict =
        match dir with
        | `Higher_better ->
          (* Tiny baselines gate on absolute slack instead: a 25% drop of
             almost nothing is measurement noise, not a regression. *)
          (c >= b *. 0.75 || b -. c < 0.5, "req/s")
        | `Lower_better -> (c <= b *. 1.25 || c -. b < 0.25, "p99 ms")
      in
      Printf.printf "  %-50s baseline %10.2f  current %10.2f  %s%s\n" name b c verdict
        (if ok then "" else "  << REGRESSION");
      if not ok then
        failures := Printf.sprintf "%s: baseline %.2f, current %.2f" name b c :: !failures
  in
  let under keys k = List.exists (fun key -> List.mem key keys) k in
  let rec walk path v =
    match v with
    | Json.Obj fields -> List.iter (fun (k, v) -> walk (k :: path) v) fields
    | Json.List items -> List.iteri (fun i v -> walk (string_of_int i :: path) v) items
    | _ -> (
      match num v with
      | None -> ()
      | Some b ->
        if under [ "requests_per_sec"; "functions_per_sec" ] path then
          check path `Higher_better b
        else if List.exists (fun k -> k = "p99" || k = "p99_ms") path then
          check path `Lower_better b)
  in
  Printf.printf "perf gate: %s vs %s (25%% tolerance)\n" baseline_file current_file;
  walk [] base;
  Printf.printf "  %d metric(s) compared\n" !checked;
  if !checked = 0 then begin
    prerr_endline "gate: no gated metrics found in the baseline";
    exit 1
  end;
  match !failures with
  | [] -> print_endline "  gate passed"
  | fs ->
    prerr_endline "gate: perf regressions against the committed baseline:";
    List.iter (fun f -> prerr_endline ("  " ^ f)) (List.rev fs);
    exit 1

let all () =
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  ablate_r ();
  ablate_worklist ();
  ablate_assert ();
  ablate_derive ();
  ablate_trip_prior ();
  perf ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] | [ _; "all" ] -> all ()
  | [ _; "fig4" ] -> fig4 ()
  | [ _; "fig5" ] -> fig5 ()
  | [ _; "fig6" ] -> fig6 ()
  | [ _; "fig7" ] -> fig7 ()
  | [ _; "fig8" ] -> fig8 ()
  | [ _; "ablate-r" ] -> ablate_r ()
  | [ _; "ablate-worklist" ] -> ablate_worklist ()
  | [ _; "ablate-assert" ] -> ablate_assert ()
  | [ _; "ablate-derive" ] -> ablate_derive ()
  | [ _; "ablate-trip" ] -> ablate_trip_prior ()
  | [ _; "perf" ] -> perf ()
  | [ _; "batch" ] -> batch_bench ~json:false ()
  | [ _; "batch"; "--json" ] | [ _; "batch"; "-json" ] -> batch_bench ~json:true ()
  | [ _; "server" ] -> server_bench ~json:false ()
  | [ _; "server"; "--json" ] | [ _; "server"; "-json" ] -> server_bench ~json:true ()
  | [ _; "gate"; baseline; current ] -> gate baseline current
  | _ ->
    prerr_endline
      "usage: main.exe [all|fig4|fig5|fig6|fig7|fig8|ablate-r|ablate-worklist|ablate-assert|ablate-derive|ablate-trip|perf|batch [--json]|server [--json]|gate BASELINE CURRENT]";
    exit 2
