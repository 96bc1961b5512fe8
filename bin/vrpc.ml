(* vrpc — command-line driver for the value-range-propagation tool chain.

   Input programs come from a MiniC file or from the built-in benchmark
   suite (-b NAME). Subcommands expose each stage: AST and SSA dumps, value
   ranges, branch predictions, profiled execution, predictor-vs-observed
   comparison, and the paper's client optimizations.

   Exit codes: 0 success; 1 bad input program or internal analysis error;
   2 usage error (no input given); 3 analysis degraded under --strict;
   124 malformed command line (cmdliner's standard). In batch mode the
   per-severity codes are: 2 when any file failed (front-end error or a
   crashed task — the batch still completes and reports every other file),
   3 under --strict when no file failed but some analysis degraded. *)

open Cmdliner

module Ir = Vrp_ir.Ir
module Engine = Vrp_core.Engine
module Pipeline = Vrp_core.Pipeline
module Interp = Vrp_profile.Interp
module Diag = Vrp_diag.Diag
module Ops = Vrp_server.Ops
module Json = Vrp_server.Json
module Client = Vrp_server.Client
module Protocol = Vrp_server.Protocol

(* --- Program source selection --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_source file bench =
  match (file, bench) with
  | Some path, None -> Ok (read_file path)
  | None, Some name -> (
    match Vrp_suite.Suite.find name with
    | Some b -> Ok b.Vrp_suite.Suite.source
    | None ->
      Error
        (Printf.sprintf "unknown benchmark %S; available: %s" name
           (String.concat ", "
              (List.map (fun (b : Vrp_suite.Suite.benchmark) -> b.name)
                 Vrp_suite.Suite.benchmarks))))
  | Some _, Some _ -> Error "give either FILE or -b NAME, not both"
  | None, None -> Error "no input: give a FILE or -b NAME"

(* Resolve the input source, mapping selection errors to exit 2. *)
let with_loaded file bench k =
  match load_source file bench with
  | Error msg ->
    prerr_endline ("vrpc: " ^ msg);
    exit 2
  | Ok source -> k source

(* Compilation is total at this boundary: front-end errors, IR-check
   violations and internal crashes all become a one-line message and exit 1
   instead of an uncaught backtrace. *)
let with_source file bench k =
  with_loaded file bench (fun source ->
      match Pipeline.compile_result source with
      | Ok compiled -> k compiled
      | Error d ->
        prerr_endline ("vrpc: " ^ d.Diag.message);
        exit 1)

(* --- Common arguments --- *)

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let bench_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "b"; "benchmark" ] ~docv:"NAME" ~doc:"Use a built-in suite benchmark.")

let numeric_arg =
  Arg.(
    value & flag
    & info [ "numeric-only" ] ~doc:"Disable symbolic ranges (paper's numeric configuration).")

let fn_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "f"; "function" ] ~docv:"FN" ~doc:"Restrict output to one function.")

let config_of_flags numeric =
  if numeric then Engine.numeric_only_config else Engine.default_config

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Analyse with $(docv) concurrent domains (the functions of one call \
           wave for a single program, whole files in batch mode). Results \
           are byte-identical to --jobs 1.")

(* A usage error (exit 2) when the pool would need more domains than the
   runtime runs. *)
let check_jobs jobs =
  Result.iter_error
    (fun msg -> prerr_endline ("vrpc: " ^ msg); exit 2)
    (Vrp_sched.Pool.check_jobs jobs)

let cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache" ] ~docv:"DIR"
        ~doc:
          "Persist function summaries and each completed file's result \
           content-addressed under $(docv). A re-run on the same $(docv) \
           re-analyses only changed functions and serves unchanged files \
           whole, so an interrupted batch resumes where it stopped.")

(* --- Diagnostics / resilience options --- *)

(* (diagnostics, strict, fault spec); shared by the analysis subcommands. *)
let diag_args =
  let diagnostics =
    Arg.(
      value & flag
      & info [ "diagnostics" ]
          ~doc:
            "Print the structured diagnostics report (degradations, \
             heuristic fallbacks, widenings) to stderr after the output.")
  in
  let strict =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Exit 3 when the analysis degraded: a function crashed, ran out \
             of fuel or timed out and fell back to heuristics.")
  in
  let fault_conv =
    let parse s =
      match Diag.Fault.parse s with
      | Ok f -> Ok f
      | Error msg -> Error (`Msg msg)
    in
    let print ppf f = Format.pp_print_string ppf (Diag.Fault.to_string f) in
    Arg.conv (parse, print)
  in
  let fault =
    (* Hidden from the manual's visible sections: a deterministic
       fault-injection hook for exercising the degradation paths. *)
    Arg.(
      value
      & opt (some fault_conv) None
      & info [ "inject-fault" ] ~docv:"SPEC" ~docs:"TESTING (HIDDEN)"
          ~doc:
            "Inject a deterministic fault: $(b,crash:FN), $(b,fuel:FN), \
             $(b,steps:N), $(b,hang:FN), $(b,crash-file:NAME), \
             $(b,corrupt-cache:N) or $(b,skew:FN). Under $(b,remote), also \
             the client-side transport chaos $(b,flood-conns:N) and \
             $(b,stall-frame:MS).")
  in
  Term.(const (fun d s f -> (d, s, f)) $ diagnostics $ strict $ fault)

(* Run [k] with a diagnostics report and a fault-patched engine config,
   then render the report and apply --strict. *)
let with_diag (diagnostics, strict, fault) config k =
  let report = Diag.create () in
  let config = { config with Engine.fault } in
  k ~report ~config;
  if diagnostics then prerr_string (Diag.render report);
  if strict && Diag.degraded report then exit 3

let select_fns (p : Ir.program) = function
  | None -> p.Ir.fns
  | Some name -> List.filter (fun (fn : Ir.fn) -> String.equal fn.Ir.fname name) p.Ir.fns

(* --- Subcommands --- *)

let dump_ast file bench =
  with_loaded file bench (fun source ->
      match Vrp_lang.Front.parse_and_check source with
      | ast -> print_string (Vrp_lang.Pretty.program_to_string ast)
      | exception e ->
        let internal = "internal error: " ^ Printexc.to_string e in
        prerr_endline ("vrpc: " ^ Option.value (Vrp_lang.Front.describe_error e) ~default:internal);
        exit 1)

let dump_ir file bench fn_filter =
  with_source file bench (fun c ->
      List.iter
        (fun fn -> print_string (Ir.fn_to_string fn))
        (select_fns c.Pipeline.ssa fn_filter))

let ranges file bench numeric fn_filter dopts =
  with_source file bench (fun c ->
      with_diag dopts (config_of_flags numeric) (fun ~report ~config ->
      let ipa = Vrp_core.Interproc.analyze ~config ~report c.Pipeline.ssa in
      List.iter
        (fun (fn : Ir.fn) ->
          match Vrp_core.Interproc.result ipa fn.Ir.fname with
          | None -> (
            match Vrp_core.Interproc.failure ipa fn.Ir.fname with
            | Some why -> Printf.printf "%s: analysis demoted (%s)\n" fn.Ir.fname why
            | None -> Printf.printf "%s: unreachable from main\n" fn.Ir.fname)
          | Some res ->
            Printf.printf "function %s:\n" fn.Ir.fname;
            Ir.iter_blocks fn (fun b ->
                List.iter
                  (fun instr ->
                    match instr with
                    | Ir.Def (v, _) ->
                      Printf.printf "  %-12s %s\n" (Vrp_ir.Var.to_string v)
                        (Vrp_ranges.Value.to_string (Engine.value res v))
                    | Ir.Store _ -> ())
                  b.Ir.instrs))
        (select_fns c.Pipeline.ssa fn_filter)))

(* Print an Ops outcome exactly as the in-line implementation used to:
   report on stdout, diagnostics/counters on stderr, code as exit code. *)
let print_outcome (o : Ops.outcome) =
  print_string o.Ops.out;
  prerr_string o.Ops.err;
  if o.Ops.code <> 0 then exit o.Ops.code

let opts_of ?(jobs = 1) numeric (diagnostics, strict, fault) =
  { Ops.default_opts with Ops.numeric; jobs; diagnostics; strict; fault }

(* --trace-out: record per-phase spans (compile, interproc waves, engine
   runs, algebra) around the analysis and write them as Chrome trace_event
   JSON — loadable in chrome://tracing or Perfetto for a flamegraph view.
   The file is written from a [Fun.protect] finaliser before the outcome's
   exit code is raised, and tracing never perturbs analysis results (the
   golden tests pin byte-identity with tracing on). *)
let with_trace trace_out k =
  match trace_out with
  | None -> k ()
  | Some path ->
    Vrp_obs.Trace.enable ();
    Fun.protect
      ~finally:(fun () ->
        Vrp_obs.Trace.disable ();
        Vrp_obs.Trace.write path;
        Printf.eprintf "trace: wrote %d span(s) to %s\n%!"
          (List.length (Vrp_obs.Trace.events ()))
          path)
      k

let predict file bench numeric jobs trace_out dopts =
  check_jobs jobs;
  with_loaded file bench (fun source ->
      let o =
        with_trace trace_out (fun () ->
            Ops.predict ~opts:(opts_of ~jobs numeric dopts) ~source ())
      in
      print_outcome o)

let run file bench args =
  with_source file bench (fun c ->
      match Interp.run ~capture_output:true c.Pipeline.ssa ~args with
      | { ret; profile; output } ->
        print_string output;
        (match ret with
        | Interp.Vint n -> Printf.printf "main returned %d\n" n
        | Interp.Vfloat f -> Printf.printf "main returned %g\n" f);
        Printf.printf "executed %d instructions, %d distinct conditional branches\n"
          profile.Interp.steps
          (Hashtbl.length profile.Interp.branches)
      | exception Interp.Trap msg ->
        Printf.printf "trap: %s\n" msg;
        exit 1)

let compare file bench train_args ref_args dopts =
  with_loaded file bench (fun source ->
      print_outcome
        (Ops.compare_predictors ~opts:(opts_of false dopts) ~train:train_args
           ~ref_args ~source ()))

let optimize file bench numeric dopts =
  with_source file bench (fun c ->
      with_diag dopts (config_of_flags numeric) (fun ~report ~config ->
      let ipa = Vrp_core.Interproc.analyze ~config ~report c.Pipeline.ssa in
      List.iter
        (fun (fn : Ir.fn) ->
          match Vrp_core.Interproc.result ipa fn.Ir.fname with
          | None -> ()
          | Some res ->
            let report = Vrp_core.Optimize.find_report res in
            Printf.printf "function %s: %s" fn.Ir.fname
              (Vrp_core.Optimize.report_to_string report);
            let rewritten = Vrp_core.Optimize.rewrite res in
            Printf.printf "  %d blocks -> %d blocks after rewrite\n"
              (Ir.num_blocks fn) (Ir.num_blocks rewritten))
        c.Pipeline.ssa.Ir.fns))

let bounds file bench numeric dopts =
  with_source file bench (fun c ->
      with_diag dopts (config_of_flags numeric) (fun ~report ~config ->
      let ipa = Vrp_core.Interproc.analyze ~config ~report c.Pipeline.ssa in
      List.iter
        (fun (fn : Ir.fn) ->
          match Vrp_core.Interproc.result ipa fn.Ir.fname with
          | None -> ()
          | Some res ->
            let r = Vrp_core.Bounds_check.analyze c.Pipeline.ssa res in
            if r.Vrp_core.Bounds_check.total > 0 then
              Printf.printf "function %-12s %d/%d bounds checks eliminated\n" fn.Ir.fname
                r.Vrp_core.Bounds_check.eliminated r.Vrp_core.Bounds_check.total)
        c.Pipeline.ssa.Ir.fns))

let alias file bench =
  with_source file bench (fun c ->
      let ipa = Vrp_core.Interproc.analyze c.Pipeline.ssa in
      List.iter
        (fun (fn : Ir.fn) ->
          match Vrp_core.Interproc.result ipa fn.Ir.fname with
          | None -> ()
          | Some res ->
            let r = Vrp_core.Alias.analyze res in
            if r.Vrp_core.Alias.pairs <> [] then
              Printf.printf "function %-12s %d/%d access pairs proven disjoint\n"
                fn.Ir.fname r.Vrp_core.Alias.disjoint
                (List.length r.Vrp_core.Alias.pairs))
        c.Pipeline.ssa.Ir.fns)

let freq file bench numeric top dopts =
  with_source file bench (fun c ->
      with_diag dopts (config_of_flags numeric) (fun ~report ~config ->
      let pred, _ = Pipeline.vrp_predictions ~config ~report c.Pipeline.ssa in
      let f = Vrp_core.Frequency.of_prediction c.Pipeline.ssa pred in
      Printf.printf "function invocation frequencies (per run of main):\n";
      (* Sorted by name: hash-table order must never reach the report. *)
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) f.Vrp_core.Frequency.call_freq []
      |> List.sort Stdlib.compare
      |> List.iter (fun (name, v) -> Printf.printf "  %-14s %12.1f\n" name v);
      Printf.printf "\nhottest blocks (predicted global execution frequency):\n";
      List.iteri
        (fun i (fname, bid, v) ->
          if i < top then Printf.printf "  %-14s B%-4d %12.1f\n" fname bid v)
        (Vrp_core.Frequency.hottest_blocks f)))

(* --annotate labels edges and blocks with the probabilities [predict]
   prints and the per-invocation frequencies [freq] solves from them. *)
let dot file bench fn_filter annotate =
  with_source file bench (fun c ->
      let ssa = c.Pipeline.ssa in
      let annotated =
        if not annotate then None
        else
          let pred, _ = Pipeline.vrp_predictions ssa in
          Some (pred, Vrp_core.Frequency.of_prediction ssa pred)
      in
      List.iter
        (fun (fn : Ir.fn) ->
          match annotated with
          | Some (pred, f) ->
            let ff = Hashtbl.find_opt f.Vrp_core.Frequency.per_fn fn.Ir.fname in
            print_string
              (Vrp_ir.Dot.fn_to_dot
                 ~branch_prob:(fun bid -> Hashtbl.find_opt pred (fn.Ir.fname, bid))
                 ~block_note:(fun bid ->
                   Option.map
                     (fun ff ->
                       Printf.sprintf "freq %.2f" ff.Vrp_core.Frequency.block_freq.(bid))
                     ff)
                 fn)
          | None -> print_string (Vrp_ir.Dot.fn_to_dot fn))
        (select_fns ssa fn_filter))

(* Batch mode: fan out over a directory of MiniC files on a domain pool,
   with an optional content-addressed cache (--cache DIR, whose file
   records make a re-run on the same DIR the resume of an interrupted one)
   and per-function deadlines (--deadline-ms). Predictions go to stdout and
   are byte-identical for any --jobs and for resumed runs; timing, cache
   traffic and supervision counters — which legitimately vary — go to
   stderr. *)
let batch_paths dir =
  match Vrp_sched.Batch.list_dir dir with
  | [] ->
    prerr_endline (Printf.sprintf "vrpc: no MiniC files (.mc, .minic, .c) in %s" dir);
    exit 2
  | paths -> paths
  | exception Sys_error msg ->
    prerr_endline ("vrpc: " ^ msg);
    exit 2

let batch dir jobs cache_dir cache_max_mb deadline_ms numeric trace_out
    ((_, _, fault) as dopts) =
  check_jobs jobs;
  let module Summary_cache = Vrp_cache.Summary_cache in
  let sources = List.map (fun p -> (p, read_file p)) (batch_paths dir) in
  let cache_fault, _ = Ops.route_fault fault in
  let cache =
    Option.map
      (fun dir ->
        Summary_cache.create ~disk_dir:dir ?max_disk_mb:cache_max_mb
          ?fault:cache_fault ())
      cache_dir
  in
  let o =
    with_trace trace_out (fun () ->
        Ops.batch ?cache ?within_ms:deadline_ms ~opts:(opts_of ~jobs numeric dopts) ~sources ())
  in
  print_string o.Ops.out;
  prerr_string o.Ops.err;
  exit o.Ops.code

(* --- remote: drive a running vrpd daemon --- *)

(* The daemon answers the byte-identical stdout/stderr/exit-code of the
   one-shot subcommand, so a remote call prints exactly like a local one;
   only daemon-unreachable errors are new (exit 2). *)

(* Transport chaos is enacted by the client itself, at the socket level —
   never sent to the daemon as a request param. [flood-conns:N] holds N
   idle raw connections open around the real request, driving the daemon
   into its connection-capacity shed path; [stall-frame:MS] sends a
   partial frame header on a throwaway connection and stalls, which the
   daemon's idle sweeper must disconnect. In both cases the real request
   must still answer byte-identically — that is the point of the drill. *)
let with_transport_chaos socket fault k =
  match fault with
  | Some (Diag.Fault.Flood_conns n) ->
    let conns =
      List.filter_map
        (fun _ -> try Some (Client.connect_fd socket) with _ -> None)
        (List.init n Fun.id)
    in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with _ -> ()) conns)
      k
  | Some (Diag.Fault.Stall_frame ms) ->
    (* The stall runs on its own thread so the real request proceeds
       concurrently; any error (including the sweeper's disconnect
       surfacing as EPIPE/ECONNRESET) is the expected outcome. *)
    let stall =
      Thread.create
        (fun () ->
          try
            let fd = Client.connect_fd socket in
            Fun.protect
              ~finally:(fun () -> try Unix.close fd with _ -> ())
              (fun () ->
                ignore (Unix.write fd (Bytes.make 3 '\000') 0 3);
                Thread.delay (float_of_int ms /. 1000.))
          with _ -> ())
        ()
    in
    Fun.protect ~finally:(fun () -> Thread.join stall) k
  | Some _ | None -> k ()

(* All analysis ops are idempotent, so a dropped or refused connection —
   the signature of a fleet worker being crash-replaced — is retried with
   backoff and replayed byte-identically. A shutdown is sent exactly once:
   retrying it against a daemon that already acknowledged and died would
   turn a clean stop into a spurious failure. *)
let remote_call ?fault socket ~op params k =
  (* A daemon (or fleet worker) dying mid-request must surface as a
     retryable EPIPE, not kill the client. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let params = Json.Obj params in
  match
    with_transport_chaos socket fault (fun () ->
        if op = "shutdown" then
          Client.with_connection socket (fun c -> Client.request c ~op ~params ())
        else Client.request_retry ~addr:socket ~op ~params ())
  with
  | resp ->
    print_string resp.Protocol.out;
    prerr_string resp.Protocol.err;
    k resp;
    if resp.Protocol.code <> 0 then exit resp.Protocol.code
  | exception Unix.Unix_error (e, _, _) ->
    prerr_endline
      (Printf.sprintf "vrpc: cannot reach vrpd at %s: %s" socket
         (Unix.error_message e));
    exit 2
  | exception Failure msg ->
    prerr_endline ("vrpc: " ^ msg);
    exit 2

let input_name file bench =
  match (file, bench) with
  | Some path, _ -> path
  | None, Some name -> name
  | None, None -> "<stdin>"

let common_params ?deadline_ms numeric (diagnostics, strict, fault) =
  [ ("numeric", Json.Bool numeric);
    ("diagnostics", Json.Bool diagnostics);
    ("strict", Json.Bool strict) ]
  @ (match deadline_ms with
    | Some ms -> [ ("deadline_ms", Json.Int ms) ]
    | None -> [])
  @
  (* Transport chaos never travels in the request: it is enacted at the
     socket by {!with_transport_chaos}. *)
  match fault with
  | Some (Diag.Fault.Flood_conns _ | Diag.Fault.Stall_frame _) | None -> []
  | Some f -> [ ("fault", Json.String (Diag.Fault.to_string f)) ]

let remote_predict socket deadline_ms file bench numeric
    ((_, _, fault) as dopts) =
  with_loaded file bench (fun source ->
      remote_call ?fault socket ~op:"predict"
        ([ ("source", Json.String source);
           ("name", Json.String (input_name file bench)) ]
        @ common_params ?deadline_ms numeric dopts)
        (fun _ -> ()))

let remote_analyze socket deadline_ms session name file bench numeric
    ((_, _, fault) as dopts) =
  with_loaded file bench (fun source ->
      let name = Option.value ~default:(input_name file bench) name in
      remote_call ?fault socket ~op:"analyze"
        ([ ("session", Json.String session);
           ("name", Json.String name);
           ("source", Json.String source) ]
        @ common_params ?deadline_ms numeric dopts)
        (fun resp ->
          (* Incremental accounting: what the daemon planned to re-analyze
             and what its session cache actually did. Stderr, like every
             other run-varying counter. *)
          match List.assoc_opt "plan" resp.Protocol.data with
          | None -> ()
          | Some plan ->
            let n k = Option.value ~default:0 (Json.mem_int k plan) in
            let len k =
              match Json.mem_list k plan with Some l -> List.length l | None -> 0
            in
            Printf.eprintf "plan: %d functions, %d changed, %d dirty, %d reused%s\n"
              (n "functions") (len "changed") (len "dirty") (len "reused")
              (if Json.mem_bool "fresh" plan = Some true then " (fresh)" else "");
            (match List.assoc_opt "cache" resp.Protocol.data with
            | Some c ->
              let n k = Option.value ~default:0 (Json.mem_int k c) in
              Printf.eprintf "cache: +%d hits, +%d misses, +%d invalidations\n"
                (n "hits") (n "misses") (n "invalidations")
            | None -> ())))

let remote_compare socket deadline_ms file bench (tn, ts) (rn, rs)
    ((_, _, fault) as dopts) =
  with_loaded file bench (fun source ->
      remote_call ?fault socket ~op:"compare"
        ([ ("source", Json.String source);
           ("name", Json.String (input_name file bench));
           ("train", Json.List [ Json.Int tn; Json.Int ts ]);
           ("reference", Json.List [ Json.Int rn; Json.Int rs ]) ]
        @ common_params ?deadline_ms false dopts)
        (fun _ -> ()))

let remote_batch socket deadline_ms dir jobs numeric ((_, _, fault) as dopts) =
  let files =
    List.map
      (fun p ->
        Json.Obj [ ("name", Json.String p); ("source", Json.String (read_file p)) ])
      (batch_paths dir)
  in
  remote_call ?fault socket ~op:"batch"
    ([ ("files", Json.List files); ("jobs", Json.Int jobs) ]
    @ common_params ?deadline_ms numeric dopts)
    (fun _ -> ())

let remote_simple op socket = remote_call socket ~op [] (fun _ -> ())

let list_benchmarks () =
  List.iter
    (fun (b : Vrp_suite.Suite.benchmark) ->
      Printf.printf "%-10s %-4s train=%s ref=%s\n" b.name
        (Vrp_suite.Suite.category_to_string b.category)
        (String.concat "," (List.map string_of_int b.train_args))
        (String.concat "," (List.map string_of_int b.ref_args)))
    Vrp_suite.Suite.benchmarks

(* --- Terms --- *)

let args_pair ~names ~doc ~default =
  Arg.(value & opt (pair ~sep:',' int int) default & info names ~docv:"N,SEED" ~doc)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record per-phase analysis spans and write them to $(docv) as \
           Chrome trace_event JSON (open in chrome://tracing or Perfetto \
           for a flamegraph). Tracing does not change analysis output.")

(* --- fuzz: property-based soundness campaign --- *)

let fuzz seed count profile minimize out determinism_every
    (_diagnostics, _strict, fault) =
  let config = { Engine.default_config with Engine.fault } in
  let profiles =
    match profile with
    | None -> Vrp_fuzz.Gen.profiles
    | Some name -> (
      match Vrp_fuzz.Gen.profile_named name with
      | Some p -> [ p ]
      | None ->
        prerr_endline
          (Printf.sprintf "vrpc: unknown fuzz profile %S; available: %s" name
             (String.concat ", "
                (List.map
                   (fun (p : Vrp_fuzz.Gen.profile) -> p.Vrp_fuzz.Gen.pname)
                   Vrp_fuzz.Gen.profiles)));
        exit 2)
  in
  let summary =
    Vrp_fuzz.Runner.run ~config ~minimize ~determinism_every ~seed ~count
      ~profiles ()
  in
  print_string (Vrp_fuzz.Runner.render summary);
  (match out with
  | Some dir ->
    List.iter
      (fun f ->
        let path = Vrp_fuzz.Runner.write_repro ~dir ~seed f in
        Printf.printf "wrote %s\n" path)
      summary.Vrp_fuzz.Runner.failures
  | None -> ());
  if summary.Vrp_fuzz.Runner.failures <> [] then exit 1

let fuzz_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed; fixes every generated program.")

let fuzz_count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Programs to generate per profile.")

let fuzz_profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME"
        ~doc:
          "Weight profile: $(b,mixed), $(b,loops), $(b,branches), \
           $(b,arrays), $(b,calls) or $(b,features). Default: all of them.")

let fuzz_minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Shrink each failing program to a minimal repro before reporting.")

let fuzz_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Write each failure as a replayable .mc repro under $(docv).")

let fuzz_det_arg =
  Arg.(
    value & opt int 10
    & info [ "determinism-every" ] ~docv:"N"
        ~doc:
          "Run the (expensive) differential-determinism oracle on every \
           $(docv)-th program; 0 disables it.")

let cmd_of name doc term = Cmd.v (Cmd.info name ~doc) term

let dump_ast_cmd =
  cmd_of "dump-ast" "Parse, type-check and pretty-print the program."
    Term.(const dump_ast $ file_arg $ bench_arg)

let dump_ir_cmd =
  cmd_of "dump-ir" "Print the canonical SSA control flow graph."
    Term.(const dump_ir $ file_arg $ bench_arg $ fn_arg)

let ranges_cmd =
  cmd_of "ranges" "Print the final value range of every SSA variable."
    Term.(const ranges $ file_arg $ bench_arg $ numeric_arg $ fn_arg $ diag_args)

let predict_cmd =
  cmd_of "predict" "Print branch probabilities from VRP and the heuristic baselines."
    Term.(
      const predict $ file_arg $ bench_arg $ numeric_arg $ jobs_arg $ trace_out_arg
      $ diag_args)

let batch_cmd =
  let dir_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Directory of MiniC files to analyse.")
  in
  let cache_max_mb_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-mb" ] ~docv:"MB"
          ~doc:
            "Cap the on-disk summary cache at $(docv) megabytes; the oldest \
             entries are evicted at startup to fit the budget.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Cancel any single function analysis running longer than \
             $(docv) milliseconds of wall clock; the function is demoted to \
             the Ball–Larus fallback instead of stalling the batch.")
  in
  cmd_of "batch"
    "Analyse every MiniC file in a directory concurrently, with summary \
     caching and per-function deadlines."
    Term.(
      const batch $ dir_arg $ jobs_arg $ cache_arg $ cache_max_mb_arg
      $ deadline_arg $ numeric_arg $ trace_out_arg $ diag_args)

let run_cmd =
  let args =
    Arg.(
      value
      & opt (list ~sep:',' int) [ 100; 1 ]
      & info [ "args" ] ~docv:"N,SEED" ~doc:"Arguments passed to main.")
  in
  cmd_of "run" "Interpret the program and report its execution profile."
    Term.(const run $ file_arg $ bench_arg $ args)

let compare_cmd =
  let train = args_pair ~names:[ "train" ] ~doc:"Training input." ~default:(100, 1) in
  let ref_ = args_pair ~names:[ "reference" ] ~doc:"Reference input." ~default:(1000, 2) in
  let wrap f b (tn, ts) (rn, rs) dopts = compare f b [ tn; ts ] [ rn; rs ] dopts in
  cmd_of "compare" "Compare every predictor against observed branch behaviour."
    Term.(const wrap $ file_arg $ bench_arg $ train $ ref_ $ diag_args)

let optimize_cmd =
  cmd_of "optimize" "Report and apply constant/copy subsumption and unreachable code."
    Term.(const optimize $ file_arg $ bench_arg $ numeric_arg $ diag_args)

let bounds_cmd =
  cmd_of "bounds" "Report array bounds checks proven redundant by value ranges."
    Term.(const bounds $ file_arg $ bench_arg $ numeric_arg $ diag_args)

let alias_cmd =
  cmd_of "alias" "Report array access pairs proven disjoint by value ranges."
    Term.(const alias $ file_arg $ bench_arg)

let freq_cmd =
  let top =
    Arg.(value & opt int 15 & info [ "top" ] ~docv:"N" ~doc:"How many hot blocks to list.")
  in
  cmd_of "freq" "Predicted block and function execution frequencies (paper section 6)."
    Term.(const freq $ file_arg $ bench_arg $ numeric_arg $ top $ diag_args)

let dot_cmd =
  let annotate =
    Arg.(value & flag & info [ "annotate" ] ~doc:"Annotate with probabilities/frequencies.")
  in
  cmd_of "dot" "Emit the control flow graph in Graphviz DOT format."
    Term.(const dot $ file_arg $ bench_arg $ fn_arg $ annotate)

let list_cmd =
  cmd_of "list" "List the built-in benchmark suite." Term.(const list_benchmarks $ const ())

let fuzz_cmd =
  cmd_of "fuzz"
    "Property-based soundness fuzzing: generate random programs, check the \
     analysis against the interpreter, shrink failures."
    Term.(
      const fuzz $ fuzz_seed_arg $ fuzz_count_arg $ fuzz_profile_arg
      $ fuzz_minimize_arg $ fuzz_out_arg $ fuzz_det_arg $ diag_args)

let socket_arg =
  Arg.(
    value
    & opt string (Client.default_address ())
    & info [ "socket" ] ~docv:"ADDR"
        ~doc:
          "vrpd address: a Unix-domain socket path, or $(b,HOST:PORT) for a \
           daemon started with --listen.")

let remote_deadline_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Stamp the request with a deadline budget. The daemon charges \
           queue wait against it and answers $(b,deadline-expired) instead \
           of dispatching a request whose budget is already gone.")

let session_arg =
  Arg.(
    value & opt string "default"
    & info [ "session" ] ~docv:"ID"
        ~doc:
          "Session id. Re-submitting an edited source under the same session \
           re-analyses only the functions downstream of the edit.")

let name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"NAME"
        ~doc:"Source name within the session (default: the file or benchmark name).")

let remote_cmd =
  let predict =
    cmd_of "predict" "Predict through the daemon (byte-identical to local predict)."
      Term.(
        const remote_predict $ socket_arg $ remote_deadline_arg $ file_arg
        $ bench_arg $ numeric_arg $ diag_args)
  in
  let analyze =
    cmd_of "analyze"
      "Session-scoped incremental predict: unchanged functions come from the \
       session's warm cache."
      Term.(
        const remote_analyze $ socket_arg $ remote_deadline_arg $ session_arg
        $ name_arg $ file_arg $ bench_arg $ numeric_arg $ diag_args)
  in
  let compare =
    let train = args_pair ~names:[ "train" ] ~doc:"Training input." ~default:(100, 1) in
    let ref_ =
      args_pair ~names:[ "reference" ] ~doc:"Reference input." ~default:(1000, 2)
    in
    cmd_of "compare" "Compare predictors through the daemon."
      Term.(
        const remote_compare $ socket_arg $ remote_deadline_arg $ file_arg
        $ bench_arg $ train $ ref_ $ diag_args)
  in
  let batch =
    let dir_arg =
      Arg.(
        required
        & pos 0 (some dir) None
        & info [] ~docv:"DIR" ~doc:"Directory of MiniC files to analyse.")
    in
    cmd_of "batch" "Batch-analyse a directory through the daemon."
      Term.(
        const remote_batch $ socket_arg $ remote_deadline_arg $ dir_arg
        $ jobs_arg $ numeric_arg $ diag_args)
  in
  let simple name doc op =
    cmd_of name doc Term.(const (remote_simple op) $ socket_arg)
  in
  Cmd.group
    (Cmd.info "remote" ~doc:"Drive a running vrpd analysis daemon.")
    [
      predict;
      analyze;
      compare;
      batch;
      simple "status" "Daemon version, sessions, request and cache counters." "status";
      simple "metrics"
        "Scrape the daemon's metrics registry as Prometheus text." "metrics";
      simple "fleet-status"
        "Fleet front-door counters and per-worker health (vrpd --fleet)."
        "fleet-status";
      simple "evict" "Drop every summary and reply the daemon holds in memory." "evict";
      simple "shutdown" "Stop the daemon after acknowledging." "shutdown";
    ]

let main_cmd =
  Cmd.group
    (Cmd.info "vrpc" ~version:Vrp_server.Version.version
       ~doc:"Static branch prediction by value range propagation (PLDI 1995)"
       ~exits:
         [
           Cmd.Exit.info 0 ~doc:"success.";
           Cmd.Exit.info 1
             ~doc:
               "bad input program, internal analysis error, or a failed fuzz \
                campaign.";
           Cmd.Exit.info 2
             ~doc:
               "usage error (no input, unknown benchmark), unreachable vrpd \
                daemon, a failed batch file, or a contained server request.";
           Cmd.Exit.info 3 ~doc:"analysis degraded under $(b,--strict).";
           Cmd.Exit.info 124 ~doc:"malformed command line.";
         ])
    [
      dump_ast_cmd;
      dump_ir_cmd;
      ranges_cmd;
      predict_cmd;
      batch_cmd;
      run_cmd;
      compare_cmd;
      optimize_cmd;
      bounds_cmd;
      alias_cmd;
      freq_cmd;
      dot_cmd;
      list_cmd;
      fuzz_cmd;
      remote_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
