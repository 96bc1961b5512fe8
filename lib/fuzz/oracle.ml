(** Soundness oracles (see the interface for the property catalogue). *)

module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module P = Vrp_ranges.Progression
module Engine = Vrp_core.Engine
module Interproc = Vrp_core.Interproc
module Pipeline = Vrp_core.Pipeline
module Sccp = Vrp_core.Sccp
module Bounds_check = Vrp_core.Bounds_check
module Frequency = Vrp_core.Frequency
module Predictor = Vrp_predict.Predictor
module Interp = Vrp_profile.Interp
module Diag = Vrp_diag.Diag
module Batch = Vrp_sched.Batch
module Summary_cache = Vrp_cache.Summary_cache

type property =
  | Well_formed
  | Range_soundness
  | Constant_soundness
  | Bounds_safety
  | Prediction_consistency
  | Determinism
  | Algebra_refinement
  | Frequency_conservation

let property_name = function
  | Well_formed -> "well-formed"
  | Range_soundness -> "range-soundness"
  | Constant_soundness -> "constant-soundness"
  | Bounds_safety -> "bounds-safety"
  | Prediction_consistency -> "prediction-consistency"
  | Determinism -> "determinism"
  | Algebra_refinement -> "algebra-refinement"
  | Frequency_conservation -> "frequency-conservation"

type violation = { prop : property; vfn : string; detail : string }

let violation_to_string v =
  if v.vfn = "" then Printf.sprintf "[%s] %s" (property_name v.prop) v.detail
  else Printf.sprintf "[%s] %s: %s" (property_name v.prop) v.vfn v.detail

type outcome = {
  violations : violation list;
  trapped : bool;
  membership_checked : bool;
}

(* Keep the violation list small and stable: one report per static site,
   at most [max_violations] total — a buggy analysis inside a loop would
   otherwise flood the report with copies of the same unsoundness. *)
let max_violations = 25

let interp_max_steps = 200_000

(* Is the concrete integer [n] certainly a member of [v]? Symbolic ranges
   are conservatively "yes" (their concrete extent is not decidable here);
   ⊤ is "no": under end-to-end trust an executed definition the analysis
   never evaluated means an edge it proved dead was taken. *)
let value_contains (v : Value.t) (n : int) : bool =
  match v with
  | Value.Bottom -> true
  | Value.Top -> false
  | Value.Ranges rs ->
    List.exists
      (fun r ->
        if Srange.is_numeric r then
          match Srange.prog r with Some pr -> P.mem n pr | None -> true
        else true)
      rs

let memo (f : string -> 'a) : string -> 'a =
  let tbl : (string, 'a) Hashtbl.t = Hashtbl.create 8 in
  fun key ->
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
      let v = f key in
      Hashtbl.add tbl key v;
      v

(* Static results are trustworthy end to end: the driver converged, no
   function was demoted, no analysis exhausted fuel. *)
let end_to_end_trusted (ssa : Ir.program) (ipa : Interproc.t) : bool =
  ipa.Interproc.converged
  && Hashtbl.length ipa.Interproc.failed = 0
  && List.for_all
       (fun (f : Ir.fn) ->
         match Interproc.result ipa f.Ir.fname with
         | Some r -> not r.Engine.fuel_exhausted
         | None -> true)
       ssa.Ir.fns

let bump tbl key n =
  Hashtbl.replace tbl key (n + Option.value ~default:0 (Hashtbl.find_opt tbl key))

(* Frequency conservation: under the branch ratios a run observed, that
   run's counts solve the frequency equations, so the solve must give them
   back. A block's count is its in-edge traversals, plus its function's
   invocations ([entered]) at the entry. *)
let conservation (ssa : Ir.program) (profile : Interp.profile) entered =
  let f = Frequency.of_prediction ssa (Predictor.profiling profile ssa) in
  let count = Hashtbl.create 64 in
  Hashtbl.iter (fun (fn, _, dst) n -> bump count (fn, dst) n) profile.Interp.edges;
  Hashtbl.iter (fun fn n -> bump count (fn, Ir.entry_bid) n) entered;
  let get tbl key = Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  let off what observed solved =
    let o = float_of_int observed in
    if Float.abs (solved -. o) <= 1e-9 *. o then None
    else Some (Printf.sprintf "%s: solved %.17g, observed %d" what solved observed)
  in
  List.filter_map
    (fun (fn : Ir.fn) ->
      let fname = fn.Ir.fname in
      let block (b : Ir.block) =
        let bid = b.Ir.bid in
        match get count (fname, bid) with
        | 0 -> None
        | n ->
          off (Printf.sprintf "block %d" bid) n
            (Option.value ~default:0.0 (Frequency.global_block_freq f ~fname ~bid))
      in
      let calls = Option.value ~default:0.0 (Hashtbl.find_opt f.Frequency.call_freq fname) in
      Option.map
        (fun detail -> { prop = Frequency_conservation; vfn = fname; detail })
        (match off "calls" (get entered fname) calls with
        | None -> Array.find_map block fn.Ir.blocks
        | bad -> bad))
    ssa.Ir.fns

let count_entry entered = function
  | Interp.Ev_enter { fn; _ } -> bump entered fn 1
  | _ -> ()

let check_conservation (ssa : Ir.program) ~(args : int list) : violation list =
  let entered = Hashtbl.create 8 in
  let r = Interp.run ~observe:(count_entry entered) ssa ~args in
  conservation ssa r.Interp.profile entered

let check ?(config = Engine.default_config)
    ?(args_list = Gen.main_args) (source : string) : outcome =
  match Pipeline.compile_result source with
  | Error d ->
    {
      violations = [ { prop = Well_formed; vfn = ""; detail = Diag.diag_to_string d } ];
      trapped = false;
      membership_checked = false;
    }
  | Ok compiled ->
    let ssa = compiled.Pipeline.ssa in
    let ipa = Interproc.analyze ~config ssa in
    (* Membership oracles are armed only when the static results are
       trustworthy end to end (see the interface). *)
    let trusted = end_to_end_trusted ssa ipa in
    let engine_of = memo (fun fn -> Interproc.result ipa fn) in
    let sccp_of =
      memo (fun fn ->
          List.find_opt (fun (f : Ir.fn) -> f.Ir.fname = fn) ssa.Ir.fns
          |> Option.map Sccp.analyze)
    in
    (* (fn, block, instr index) -> static check: an instruction holds at
       most one access, so the key is exact. *)
    let bounds_map : (string * int * int, Bounds_check.check) Hashtbl.t =
      Hashtbl.create 32
    in
    if trusted then
      List.iter
        (fun (f : Ir.fn) ->
          match engine_of f.Ir.fname with
          | None -> ()
          | Some res ->
            let report =
              Bounds_check.analyze
                ~algebra:(config.Engine.symbolic && config.Engine.algebra)
                ssa res
            in
            List.iter
              (fun (c : Bounds_check.check) ->
                Hashtbl.replace bounds_map
                  (f.Ir.fname, c.Bounds_check.block, c.Bounds_check.instr_index)
                  c)
              report.Bounds_check.checks)
        ssa.Ir.fns;
    let violations = ref [] in
    let nviol = ref 0 in
    (* site: a small int identifying the static site within [vfn], for
       per-site dedup. *)
    let seen : (string * string * int, unit) Hashtbl.t = Hashtbl.create 16 in
    let add prop ~vfn ~site detail =
      let key = (property_name prop, vfn, site) in
      if (not (Hashtbl.mem seen key)) && !nviol < max_violations then begin
        Hashtbl.add seen key ();
        incr nviol;
        violations := { prop; vfn; detail } :: !violations
      end
    in
    let branch_counts : (string * int, int * int) Hashtbl.t =
      Hashtbl.create 64
    in
    let observe (ev : Interp.event) =
      match ev with
      | Interp.Ev_def { fn; var; value = Interp.Vint n } ->
        (if trusted then
           match engine_of fn with
           | Some res when var.Var.id < Array.length res.Engine.values ->
             let v = res.Engine.values.(var.Var.id) in
             if not (value_contains v n) then
               add Range_soundness ~vfn:fn ~site:var.Var.id
                 (Printf.sprintf "%s = %d outside inferred %s"
                    (Var.to_string var) n (Value.to_string v))
           | _ -> ());
        (match sccp_of fn with
         | Some s when var.Var.id < Array.length s.Sccp.values -> (
           match s.Sccp.values.(var.Var.id) with
           | Sccp.Cint k when k <> n ->
             add Constant_soundness ~vfn:fn ~site:var.Var.id
               (Printf.sprintf "%s proven constant %d, observed %d"
                  (Var.to_string var) k n)
           | _ -> ())
         | _ -> ())
      | Interp.Ev_def _ -> ()
      | Interp.Ev_branch { fn; block; taken } ->
        let t, tot =
          Option.value ~default:(0, 0)
            (Hashtbl.find_opt branch_counts (fn, block))
        in
        Hashtbl.replace branch_counts (fn, block)
          ((if taken then t + 1 else t), tot + 1)
      | Interp.Ev_access { fn; block; instr; array; index; size; is_store } ->
        if trusted then (
          match Hashtbl.find_opt bounds_map (fn, block, instr) with
          | Some c when c.Bounds_check.provably_safe ->
            if index < 0 || index >= size then
              add Bounds_safety ~vfn:fn ~site:((block * 1024) + instr)
                (Printf.sprintf
                   "%s of %s[%d] (size %d) proven safe but out of bounds"
                   (if is_store then "store" else "load")
                   array index size)
          | _ -> ())
      | Interp.Ev_enter _ | Interp.Ev_return _ -> ()
    in
    let main_arity =
      match List.find_opt (fun (f : Ir.fn) -> f.Ir.fname = "main") ssa.Ir.fns with
      | Some f -> List.length f.Ir.params
      | None -> 0
    in
    let adapt args =
      let rec fit n = function
        | _ when n = 0 -> []
        | [] -> 0 :: fit (n - 1) []
        | a :: rest -> a :: fit (n - 1) rest
      in
      fit main_arity args
    in
    let trapped = ref false in
    List.iter
      (fun args ->
        let entered = Hashtbl.create 8 in
        let observe ev =
          count_entry entered ev;
          observe ev
        in
        match
          Interp.run ~max_steps:interp_max_steps ~capture_output:true ~observe
            ssa ~args:(adapt args)
        with
        | r ->
          List.iter
            (fun v -> add v.prop ~vfn:v.vfn ~site:0 v.detail)
            (conservation ssa r.Interp.profile entered)
        | exception Interp.Trap _ -> trapped := true
        | exception e ->
          add Well_formed ~vfn:"" ~site:0
            ("interpreter raised " ^ Printexc.to_string e))
      args_list;
    (* Prediction consistency: compare accumulated outcome counts against
       branches proven one-way. Exact 0.0 / 1.0 only — merged probabilities
       are float sums, and anything strictly inside (0,1) claims nothing
       about individual executions. *)
    if trusted then
      List.iter
        (fun (f : Ir.fn) ->
          match engine_of f.Ir.fname with
          | None -> ()
          | Some res ->
            Ir.iter_blocks f (fun b ->
                match b.Ir.term with
                | Ir.Br _ -> (
                  match Engine.branch_prob res b.Ir.bid with
                  | Some p
                    when (p = 0.0 || p = 1.0)
                         && not (Engine.used_fallback res b.Ir.bid) -> (
                    match
                      Hashtbl.find_opt branch_counts (f.Ir.fname, b.Ir.bid)
                    with
                    | Some (taken, total) ->
                      if p = 1.0 && taken < total then
                        add Prediction_consistency ~vfn:f.Ir.fname
                          ~site:b.Ir.bid
                          (Printf.sprintf
                             "block %d proven always-taken, observed %d/%d \
                              taken"
                             b.Ir.bid taken total)
                      else if p = 0.0 && taken > 0 then
                        add Prediction_consistency ~vfn:f.Ir.fname
                          ~site:b.Ir.bid
                          (Printf.sprintf
                             "block %d proven never-taken, observed %d/%d \
                              taken"
                             b.Ir.bid taken total)
                    | None -> ())
                  | _ -> ())
                | _ -> ()))
        ssa.Ir.fns;
    {
      violations = List.rev !violations;
      trapped = !trapped;
      membership_checked = trusted;
    }

(* ------------------------------------------------------------------ *)
(* Differential determinism                                            *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_path prefix =
  let f = Filename.temp_file prefix "" in
  Sys.remove f;
  f

let check_determinism ?(config = Engine.default_config) ~(name : string)
    (source : string) : violation list =
  let sources = [ (name, source) ] in
  let render ?cache jobs = Batch.render (Batch.analyze_sources ~config ?cache ~jobs sources) in
  let reference = render 1 in
  let violations = ref [] in
  let expect mode rendered =
    if rendered <> reference then
      violations :=
        {
          prop = Determinism;
          vfn = name;
          detail = mode ^ " batch report differs from the sequential render";
        }
        :: !violations
  in
  expect "parallel (--jobs 4)" (render 4);
  let cache = Summary_cache.create () in
  expect "cold-cache" (render ~cache 1);
  expect "warm-cache" (render ~cache 1);
  (* A disk cache records the file whole; reopened, it serves the file
     record without compiling. *)
  let cache_dir = temp_path "vrpfuzz_cache" in
  Fun.protect
    ~finally:(fun () -> rm_rf cache_dir)
    (fun () ->
      let disk = Summary_cache.create ~disk_dir:cache_dir () in
      expect "disk-cache" (render ~cache:disk 1);
      Summary_cache.close disk;
      let reopened = Summary_cache.create ~disk_dir:cache_dir () in
      expect "reopened-cache (file records)" (render ~cache:reopened 1);
      Summary_cache.close reopened);
  List.rev !violations

(* ------------------------------------------------------------------ *)
(* Differential algebra refinement                                     *)

(* Membership probes for the "ranges only tighten" direction: a dense grid
   around the magnitudes the generator emits, plus a few outliers. *)
let probe_grid =
  List.init 131 (fun i -> i - 65) @ [ -65536; -1000; -256; 255; 1000; 65535 ]

(* Decidable membership: [Some] only when the value is numeric enough to
   decide. Symbolic bounds are undecided — their concrete extent depends on
   the base — so they can never produce a (false-positive) disagreement. *)
let decided_mem (v : Value.t) (n : int) : bool option =
  match v with
  | Value.Bottom -> Some true
  | Value.Top -> Some false
  | Value.Ranges rs ->
    let rec go = function
      | [] -> Some false
      | r :: rest ->
        if not (Srange.is_numeric r) then None
        else (
          match Srange.prog r with
          | None -> None
          | Some p -> if P.mem n p then Some true else go rest)
    in
    go rs

let check_algebra ?(config = Engine.default_config) (source : string) :
    bool * violation list =
  match Pipeline.compile_result source with
  | Error _ -> (false, []) (* [check] reports the Well_formed failure *)
  | Ok compiled ->
    let ssa = compiled.Pipeline.ssa in
    let ipa1 = Interproc.analyze ~config:{ config with Engine.algebra = false } ssa in
    let ipa2 = Interproc.analyze ~config:{ config with Engine.algebra = true } ssa in
    (* Both sides must be trustworthy end to end, else an exhausted budget
       — not the algebra — explains any difference. *)
    if not (end_to_end_trusted ssa ipa1 && end_to_end_trusted ssa ipa2) then
      (false, [])
    else begin
      let violations = ref [] in
      let nviol = ref 0 in
      let add ~vfn detail =
        if !nviol < max_violations then begin
          incr nviol;
          violations := { prop = Algebra_refinement; vfn; detail } :: !violations
        end
      in
      List.iter
        (fun (f : Ir.fn) ->
          match (Interproc.result ipa1 f.Ir.fname, Interproc.result ipa2 f.Ir.fname) with
          | Some r1, Some r2 ->
            (* Ranges only tighten: no value decidably excluded without the
               algebra may be decidably admitted with it. A ⊥ on the v2
               side claims nothing and is vacuous. *)
            Array.iteri
              (fun id val1 ->
                if id < Array.length r2.Engine.values then
                  match r2.Engine.values.(id) with
                  | Value.Bottom -> ()
                  | val2 ->
                    List.iter
                      (fun n ->
                        match (decided_mem val1 n, decided_mem val2 n) with
                        | Some false, Some true ->
                          add ~vfn:f.Ir.fname
                            (Printf.sprintf
                               "v%d: %d excluded without algebra (%s) but \
                                admitted with it (%s)"
                               id n (Value.to_string val1) (Value.to_string val2))
                        | _ -> ())
                      probe_grid)
              r1.Engine.values;
            (* One-way branches are preserved: a branch proven one-way
               without the algebra stays proven, with the same direction
               (unless the whole block died, which is strictly stronger). *)
            Ir.iter_blocks f (fun b ->
                match b.Ir.term with
                | Ir.Br _ when r2.Engine.visited.(b.Ir.bid) -> (
                  match Engine.branch_prob r1 b.Ir.bid with
                  | Some p
                    when (p = 0.0 || p = 1.0)
                         && not (Engine.used_fallback r1 b.Ir.bid) -> (
                    match Engine.branch_prob r2 b.Ir.bid with
                    | Some q when q = p && not (Engine.used_fallback r2 b.Ir.bid)
                      ->
                      ()
                    | _ ->
                      add ~vfn:f.Ir.fname
                        (Printf.sprintf
                           "block %d proven one-way (p=%.1f) without algebra \
                            but not with it"
                           b.Ir.bid p))
                  | _ -> ())
                | _ -> ());
            (* Bounds-check eliminations only grow (site by site). *)
            let rep1 = Bounds_check.analyze ~algebra:false ssa r1 in
            let rep2 = Bounds_check.analyze ~algebra:true ssa r2 in
            let safe2 = Hashtbl.create 16 in
            List.iter
              (fun (c : Bounds_check.check) ->
                Hashtbl.replace safe2
                  (c.Bounds_check.block, c.Bounds_check.instr_index)
                  c.Bounds_check.provably_safe)
              rep2.Bounds_check.checks;
            List.iter
              (fun (c : Bounds_check.check) ->
                if c.Bounds_check.provably_safe then
                  match
                    Hashtbl.find_opt safe2
                      (c.Bounds_check.block, c.Bounds_check.instr_index)
                  with
                  | Some true | None -> ()
                  | Some false ->
                    add ~vfn:f.Ir.fname
                      (Printf.sprintf
                         "check %s[.] at block %d instr %d eliminated without \
                          algebra but not with it"
                         c.Bounds_check.array c.Bounds_check.block
                         c.Bounds_check.instr_index))
              rep1.Bounds_check.checks
          | _ -> ())
        ssa.Ir.fns;
      (true, List.rev !violations)
    end
