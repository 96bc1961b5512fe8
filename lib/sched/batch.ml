(** Batch analysis driver (see the interface). *)

module Ir = Vrp_ir.Ir
module Diag = Vrp_diag.Diag
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Pipeline = Vrp_core.Pipeline
module Summary_cache = Vrp_cache.Summary_cache
module Digest_key = Vrp_cache.Digest_key

type file_result = {
  name : string;
  error : string option;
  functions : int;
  predictions : ((string * int) * float * string) list;
  demoted : (string * string) list;
  report : Diag.report;
  evaluations : int;
}

type aggregate = {
  files : int;
  failed_files : int;
  functions : int;
  branches : int;
  fallbacks : int;
  demoted_fns : int;
}

let failed_result name msg report =
  {
    name;
    error = Some msg;
    functions = 0;
    predictions = [];
    demoted = [];
    report;
    evaluations = 0;
  }

let analyze_one ?cache ~supervise ~config (name, source) =
  (* The crash-file fault fires before any containment the file's own
     analysis sets up: it models a worker dying mid-wave, so only the
     pool's whole-file containment may catch it. *)
  (match config.Engine.fault with
  | Some (Diag.Fault.Crash_file affix) when Vrp_util.Strutil.is_infix ~affix name ->
    raise (Diag.Fault.Injected (Printf.sprintf "injected batch-task crash in %s" name))
  | _ -> ());
  let report = Diag.create () in
  match Pipeline.compile_result source with
  | Error d ->
    Diag.add report Diag.Error d.Diag.kind d.Diag.message;
    failed_result name d.Diag.message report
  | Ok compiled ->
    let ssa = compiled.Pipeline.ssa in
    let analyze_fn =
      match cache with
      | Some c -> Summary_cache.memoized ~file:name c (Digest_key.fn_keys ssa)
      | None -> Interproc.default_analyze_fn
    in
    (* Supervision wraps outside the cache: a cache hit is served without
       spending a deadline. *)
    let analyze_fn = supervise analyze_fn in
    let markers = Hashtbl.create 16 in
    let vrp, ipa = Pipeline.vrp_predictions ~config ~report ~markers ~analyze_fn ssa in
    let predictions =
      Hashtbl.fold
        (fun key p acc -> (key, p, Pipeline.fallback_marker markers key) :: acc)
        vrp []
      |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    in
    let demoted =
      match ipa with
      | None -> []
      | Some ipa ->
        List.sort compare
          (Hashtbl.fold (fun fn why acc -> (fn, why) :: acc) ipa.Interproc.failed [])
    in
    let evaluations =
      match ipa with
      | None -> 0
      | Some ipa ->
        List.fold_left
          (fun acc (fn : Ir.fn) ->
            match Interproc.result ipa fn.Ir.fname with
            | Some res -> acc + res.Engine.evaluations
            | None -> acc)
          0 ssa.Ir.fns
    in
    {
      name;
      error = None;
      functions = List.length ssa.Ir.fns;
      predictions;
      demoted;
      report;
      evaluations;
    }

let crash_result name e =
  (* Whole-file containment: even a driver bug costs one file. *)
  let report = Diag.create () in
  let why =
    match e with
    | Diag.Fault.Injected msg -> msg
    | e -> Printexc.to_string e
  in
  let msg = Printf.sprintf "batch task crashed: %s" why in
  Diag.add report Diag.Error Diag.Analysis_crashed msg;
  failed_result name msg report

let analyze_sources ?(config = Engine.default_config) ?cache ?within_ms ?deadline ~jobs sources =
  let supervise = Supervisor.wrap_analyze_fn ?within_ms ?deadline in
  (* A batch checkpoint is a file record in the cache's disk tier, keyed by
     the source and the configuration: a re-run on the same directory
     serves every unchanged file whole, which is how an interrupted batch
     resumes. Without a disk tier no record is read or written, and no
     source is digested. *)
  let file_key =
    match cache with
    | Some c when Summary_cache.persistent c ->
      let config_digest = Digest_key.config_digest config in
      fun source -> Some (c, Digest_key.file_key ~source ~config_digest)
    | Some _ | None -> fun _ -> None
  in
  let task (name, source) =
    match file_key source with
    | None -> analyze_one ?cache ~supervise ~config (name, source)
    | Some (c, key) -> (
      match Summary_cache.find_file c ~key with
      | Some payload -> { (Marshal.from_string payload 0 : file_result) with name }
      | None ->
        let r = analyze_one ?cache ~supervise ~config (name, source) in
        (* A deadline cut is not a function of the key: never record it.
           A crashed task raises past this point and is never recorded. *)
        if Diag.count_kind r.report Diag.Deadline_exceeded = 0 then
          Summary_cache.store_file c ~key (Marshal.to_string r []);
        r)
  in
  let outcomes = Pool.with_pool ~jobs (fun pool -> Pool.map pool task (Array.of_list sources)) in
  List.map2
    (fun (name, _) outcome ->
      match outcome with
      | Ok r -> r
      | Error e -> crash_result name e)
    sources (Array.to_list outcomes)

let aggregate results =
  List.fold_left
    (fun acc r ->
      {
        files = acc.files + 1;
        failed_files = (acc.failed_files + if r.error = None then 0 else 1);
        functions = acc.functions + r.functions;
        branches = acc.branches + List.length r.predictions;
        fallbacks =
          acc.fallbacks
          + List.length (List.filter (fun (_, _, m) -> m <> "") r.predictions);
        demoted_fns = acc.demoted_fns + List.length r.demoted;
      })
    { files = 0; failed_files = 0; functions = 0; branches = 0; fallbacks = 0;
      demoted_fns = 0 }
    results

(* Exit-code policy shared by the CLI and pinned by the tests: failed files
   dominate strictness (a 2 is a 2 even under [--strict]). *)
let exit_code ~strict results =
  let a = aggregate results in
  if a.failed_files > 0 then 2
  else if strict && List.exists (fun r -> Diag.degraded r.report) results then 3
  else 0

let render results =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf (Printf.sprintf "== %s ==\n" r.name);
      (match r.error with
      | Some msg -> Buffer.add_string buf (Printf.sprintf "error: %s\n" msg)
      | None -> begin
        Buffer.add_string buf
          (Printf.sprintf "functions: %d, branches: %d\n" r.functions
             (List.length r.predictions));
        List.iter
          (fun ((fn, bid), p, marker) ->
            Buffer.add_string buf
              (Printf.sprintf "  %-28s %6.1f%%%s\n"
                 (Printf.sprintf "%s.B%d" fn bid)
                 (100.0 *. p) marker))
          r.predictions;
        List.iter
          (fun (fn, why) ->
            Buffer.add_string buf (Printf.sprintf "  demoted: %s (%s)\n" fn why))
          r.demoted
      end))
    results;
  let a = aggregate results in
  Buffer.add_string buf
    (Printf.sprintf
       "== aggregate ==\nfiles: %d (%d failed), functions: %d, branches: %d, \
        heuristic fallbacks: %d, demoted functions: %d\n"
       a.files a.failed_files a.functions a.branches a.fallbacks a.demoted_fns);
  Buffer.contents buf

let list_dir dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         List.mem (Filename.extension f) [ ".mc"; ".minic"; ".c" ]
         && not (Sys.is_directory (Filename.concat dir f)))
  |> List.sort String.compare
  |> List.map (Filename.concat dir)
