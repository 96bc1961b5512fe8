(** End-to-end convenience pipeline: MiniC source → canonical SSA CFG →
    predictions. Shared by the CLI driver, the examples, the evaluation
    harness and the tests so they all agree on what "the program" is. *)

module Ir = Vrp_ir.Ir
module Value = Vrp_ranges.Value
module Predictor = Vrp_predict.Predictor
module Heuristics = Vrp_predict.Heuristics
module Diag = Vrp_diag.Diag

type compiled = {
  source : string;
  ast : Vrp_lang.Ast.program;
  ssa : Ir.program;  (** the canonical SSA program all consumers share *)
  baselines : Predictor.baselines list option;
}

type memo =
  Vrp_lang.Ast.program ->
  Vrp_lang.Ast.func ->
  (unit -> Ir.fn * Predictor.baselines) ->
  Ir.fn * Predictor.baselines

(* One function's chain. Each function's SSA depends only on its own AST
   and [env] (variable ids are per function), so functions compile apart. *)
let compile_fn env f () =
  let cfg =
    Vrp_obs.Trace.with_span "build-cfg" (fun () ->
        Vrp_ir.Build.split_critical_edges
          (Vrp_ir.Build.cleanup (Vrp_ir.Build.lower_fn env f)))
  in
  let ssa = Vrp_obs.Trace.with_span "ssa" (fun () -> Vrp_ir.Ssa.transform cfg) in
  Vrp_obs.Trace.with_span "check-ssa" (fun () -> Vrp_ir.Check.check_ssa_fn ssa);
  ssa

(** Parse, check, then lower, clean, split, convert to SSA and validate each
    function, through [memo] when given; a memo miss also computes the
    function's baseline columns, which the memo keeps with its SSA.
    @raise Vrp_lang front-end errors or {!Vrp_ir.Check.Violation}. *)
let compile ?memo (source : string) : compiled =
  Vrp_obs.Trace.with_span "compile" (fun () ->
      let ast =
        Vrp_obs.Trace.with_span "parse+check" (fun () ->
            Vrp_lang.Front.parse_and_check source)
      in
      let env = Vrp_ir.Build.env ast in
      let fns, baselines =
        match memo with
        | None -> (List.map (fun f -> compile_fn env f ()) ast.funcs, None)
        | Some memo ->
          let find = memo ast in
          let build f () =
            let fn = compile_fn env f () in
            (fn, Predictor.baselines fn)
          in
          let products = List.map (fun f -> find f (build f)) ast.funcs in
          (List.map fst products, Some (List.map snd products))
      in
      { source; ast; ssa = { Ir.fns; global_arrays = Vrp_ir.Build.globals env }; baselines })

(** Total variant of {!compile} for consumers that must not see exceptions:
    any front-end error, IR-check violation or internal crash becomes a
    structured [Front_end_error] diagnostic. *)
let compile_result ?memo (source : string) : (compiled, Diag.diag) result =
  match compile ?memo source with
  | c -> Ok c
  | exception e ->
    let message =
      match Vrp_lang.Front.describe_error e with
      | Some msg -> msg
      | None -> (
        match e with
        | Vrp_ir.Check.Violation msg -> "internal IR invariant violated: " ^ msg
        | e -> "internal error: " ^ Printexc.to_string e)
    in
    Error
      {
        Diag.severity = Diag.Error;
        kind = Diag.Front_end_error;
        loc = Diag.no_loc;
        message;
      }

(** Branch predictions from (interprocedural) value range propagation.

    Totality guarantee: the returned map has an entry for {e every}
    conditional branch of the program, whatever happens during analysis.
    Branches of unreachable or demoted functions fall back to the
    Ball–Larus estimate; a per-function crash or fuel exhaustion demotes
    only that function. With [report], every fallback is recorded as a
    [Fallback_heuristic] diagnostic (warning severity when caused by
    infrastructure degradation, info when it is the paper's ordinary
    ⊥-range fallback). *)
type fallback_predictor =
  static:Vrp_ir.Static.t -> res:Engine.t option -> src:int -> Ir.branch -> float

let vrp_predictions ?(config = Engine.default_config) ?report ?run_tasks
    ?analyze_fn ?fallback (ssa : Ir.program) :
    Predictor.prediction * Interproc.t option =
  let out = Hashtbl.create 64 in
  let record ?fn ?block severity kind message =
    match report with
    | Some r -> Diag.add r ?fn ?block severity kind message
    | None -> ()
  in
  (* What fills the gaps VRP leaves: Ball–Larus, or the learned tier when a
     [fallback] hook is given (the ladder VRP → learned → B&L lives in the
     hook's own implementation). The name reaches the diagnostics, whose
     default wording is pinned by tests — keep it byte-identical. *)
  let tier_name =
    match fallback with
    | None -> "Ball–Larus heuristics"
    | Some _ -> "the learned fallback model"
  in
  (* [demoted] explains why a function has no engine result (crash text),
     [None] meaning it is simply unreachable from main. *)
  let fill (fn : Ir.fn) (res : Engine.t option) ~(demoted : string option) =
    let static = lazy (Vrp_ir.Static.of_fn fn) in
    Array.iter
      (fun (b : Ir.block) ->
        match b.Ir.term with
        | Ir.Br br ->
          let fb () =
            match fallback with
            | Some f -> f ~static:(Lazy.force static) ~res ~src:b.Ir.bid br
            | None -> Heuristics.ball_larus (Lazy.force static) ~src:b.Ir.bid br
          in
          let p =
            match res with
            | Some eres -> (
              match Engine.branch_prob eres b.Ir.bid with
              | Some p ->
                if Engine.used_fallback eres b.Ir.bid then begin
                  record ~fn:fn.Ir.fname ~block:b.Ir.bid Diag.Info
                    Diag.Fallback_heuristic
                    (Printf.sprintf "branch predicted by %s (range is ⊥)"
                       tier_name);
                  (* The engine's own fallback value is Ball–Larus; the
                     hook replaces it on the prediction surface. *)
                  match fallback with Some _ -> fb () | None -> p
                end
                else p
              | None ->
                if eres.Engine.fuel_exhausted then
                  record ~fn:fn.Ir.fname ~block:b.Ir.bid Diag.Warning
                    Diag.Fallback_heuristic
                    (Printf.sprintf
                       "branch not reached by the (governor-limited) \
                        analysis; using %s"
                       tier_name)
                else
                  record ~fn:fn.Ir.fname ~block:b.Ir.bid Diag.Info
                    Diag.Fallback_heuristic
                    (Printf.sprintf
                       "branch unreachable for the analysis; using %s"
                       tier_name);
                fb ())
            | None ->
              (match demoted with
              | Some why ->
                record ~fn:fn.Ir.fname ~block:b.Ir.bid Diag.Warning
                  Diag.Fallback_heuristic
                  (Printf.sprintf "function demoted (%s); branch predicted by %s"
                     why tier_name)
              | None ->
                record ~fn:fn.Ir.fname ~block:b.Ir.bid Diag.Info
                  Diag.Fallback_heuristic
                  (Printf.sprintf
                     "function unreachable from main; branch predicted by %s"
                     tier_name));
              fb ()
          in
          Hashtbl.replace out (fn.Ir.fname, b.Ir.bid) p
        | Ir.Jump _ | Ir.Ret _ -> ())
      fn.Ir.blocks
  in
  (* Last-resort containment for whole-driver failures (e.g. a program with
     no [main], or a bug in the interprocedural round logic): fall back to
     per-function intraprocedural analysis, itself per-function contained. *)
  let intraprocedural_contained () =
    List.iter
      (fun fn ->
        match Engine.analyze ~config fn with
        | res ->
          Option.iter (fun r -> Diag.append r res.Engine.diags) report;
          fill fn (Some res) ~demoted:None
        | exception e ->
          let why =
            match e with
            | Diag.Fault.Injected msg -> msg
            | e -> Printexc.to_string e
          in
          record ~fn:fn.Ir.fname Diag.Error Diag.Analysis_crashed
            (Printf.sprintf "analysis raised (%s); function demoted to \
                             heuristics" why);
          fill fn None ~demoted:(Some why))
      ssa.Ir.fns
  in
  match
    Vrp_obs.Trace.with_span "interproc" (fun () ->
        Interproc.analyze ~config ?report ?run_tasks ?analyze_fn ssa)
  with
  | ipa ->
    List.iter
      (fun (fn : Ir.fn) ->
        fill fn
          (Interproc.result ipa fn.Ir.fname)
          ~demoted:(Interproc.failure ipa fn.Ir.fname))
      ssa.Ir.fns;
    (out, Some ipa)
  | exception e ->
    record Diag.Error Diag.Analysis_crashed
      (Printf.sprintf
         "interprocedural driver raised (%s); falling back to \
          per-function analysis"
         (Printexc.to_string e));
    intraprocedural_contained ();
    (out, None)

let fallback_branches report =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (d : Diag.diag) ->
      match (d.Diag.kind, d.Diag.loc.Diag.fn, d.Diag.loc.Diag.block) with
      | Diag.Fallback_heuristic, Some fn, Some bid ->
        let degraded = d.Diag.severity <> Diag.Info in
        let prev = Option.value ~default:false (Hashtbl.find_opt tbl (fn, bid)) in
        Hashtbl.replace tbl (fn, bid) (degraded || prev)
      | _ -> ())
    (Diag.to_list report);
  tbl

let fallback_marker fb key =
  match Hashtbl.find_opt fb key with
  | Some true -> "!" (* degraded: crash / fuel / deadline *)
  | Some false -> "*" (* ordinary ⊥-range fallback *)
  | None -> ""

(** All the predictors of the paper's Figures 7/8, keyed by the legend names
    used in the harness output. [train] is the profiling predictor's
    training run. [config] (default the paper's full configuration) applies
    to the full-VRP run only — so CLI resilience options, including fault
    injection, reach it — while "vrp-sym1" (symbolic without the v2
    sum-of-products algebra) and "vrp-numeric" stay the fixed ablations of
    the numeric-vs-symbolic-v1-vs-v2 comparison. *)
let all_predictors ?report ?(config = Engine.default_config) ?fallback
    ~(train : Vrp_profile.Interp.profile) (ssa : Ir.program) :
    (string * Predictor.prediction) list =
  let vrp_full, _ = vrp_predictions ~config ?report ssa in
  let ball_larus, ninety_fifty = Predictor.baseline_predictions ssa in
  let vrp_numeric, _ = vrp_predictions ~config:Engine.numeric_only_config ssa in
  (* Symbolic-v1 ablation: full symbolic ranges but no sum-of-products
     algebra, isolating the v2 contribution in the §5 comparison. *)
  let vrp_sym1, _ =
    vrp_predictions ~config:{ config with Engine.algebra = false } ssa
  in
  (* The learned tier rides on the same full-VRP configuration; only the ⊥
     gaps differ from the "vrp" column, so the delta isolates the fallback
     ladder's contribution. *)
  let learned =
    match fallback with
    | None -> []
    | Some fallback ->
      let vrp_learned, _ = vrp_predictions ~config ~fallback ssa in
      [ ("vrp+learned", vrp_learned) ]
  in
  [
    ("profiling", Predictor.profiling train ssa);
    ("ball-larus", ball_larus);
    ("vrp", vrp_full);
  ]
  @ learned
  @ [
      ("vrp-sym1", vrp_sym1);
      ("vrp-numeric", vrp_numeric);
      ("90/50", ninety_fifty);
      ("random", Predictor.random ssa);
    ]
