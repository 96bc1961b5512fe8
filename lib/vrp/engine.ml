(** The value range propagation engine (paper §3.3).

    A sparse forward propagator in the style of Wegman–Zadeck conditional
    constant propagation, generalised to weighted value ranges. Two
    worklists are maintained — the FlowWorkList of CFG edges and the
    SSAWorkList of def–use edges — and drained until a fixed point:

    1. visiting a block for the first time evaluates every expression in
       it; later visits re-evaluate only the φ-functions;
    2. a changed definition enqueues its SSA out-edges;
    3. loop-carried φ-functions are matched against induction templates
       ({!Derive}) instead of being iterated;
    4. a conditional branch is predicted from the value range of the tested
       variable; its out-edges carry the resulting probabilities, and edges
       with probability 0 stay unexecuted (unreachable-code detection, as in
       SCCP);
    5. branches whose range is ⊥ fall back to the Ball–Larus heuristics
       (§5).

    Termination: the paper's argument is the finite range budget; because
    probabilities fluctuate non-monotonically we add a per-variable
    evaluation quota after which a value widens to ⊥ (a documented
    safety-valve; see DESIGN.md). φ merge weights follow footnote 1: the
    in-edge weight is the predecessor's relative frequency — computed
    acyclically by ignoring back edges — times the edge's conditional
    probability.

    The engine runs no static pass of its own: dominators, loops, back
    edges, reverse postorder and definition sites come from one
    {!Vrp_ir.Static} record per run, shared with derivation, the
    Ball–Larus fallback and the algebra post-pass. Diagnostics are part of
    the result ([t.diags]), never written into a caller's report, so a run
    that raises leaves none behind. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Static = Vrp_ir.Static
module Value = Vrp_ranges.Value
module Config = Vrp_ranges.Config
module Counters = Vrp_ranges.Counters
module Heuristics = Vrp_predict.Heuristics
module Diag = Vrp_diag.Diag

type config = {
  symbolic : bool;  (** track symbolic ranges (paper's full configuration) *)
  use_assertions : bool;  (** narrow through branch assertions *)
  use_derivation : bool;  (** derive loop-carried φs instead of iterating *)
  algebra : bool;
      (** symbolic algebra v2: build a per-function {!Alg} fact context
          (sum-of-products equations + scoped assertion facts) and run a
          post-fixpoint pass that upgrades fallback branches to proved
          one-way predictions. The fixpoint itself never consults the facts
          — the trajectory and final ranges are byte-identical to v1, so v2
          strictly adds proofs. Only effective with [symbolic] *)
  eval_quota : int;
      (** per-variable value {e changes} before widening to ⊥. Implements
          the paper's §4 observation operationally: ranges that keep
          changing are the "problematic" loop-carried ones that "quickly
          become ⊥"; a small quota lets tiny loops enumerate exactly while
          cutting runaway iteration *)
  trip_prior : float;
      (** assumed relative frequency of a loop back edge versus loop entry
          when merging at a loop-header φ; the classical ~10-iterations
          prior. Without it the loop-exit value gets half the φ's mass and
          loop-variable distributions are badly biased *)
  flow_first : bool;  (** prefer the FlowWorkList (paper §3.3 step 2) *)
  max_growth : int;
      (** per-variable range-set growth cap: a value whose range set grows
          past this many ranges is widened to ⊥ (backstop behind
          {!Vrp_ranges.Config.max_ranges}, which ablation sweeps can raise) *)
  fault : Diag.Fault.t option;
      (** deterministic fault injection for tests and the hidden CLI flag *)
  cancel : Diag.Cancel.token option;
      (** the run's deadline, if it has one: the engine checks it once per
          worklist step and raises {!Diag.Cancel.Cancelled} once it has
          passed. [None] (no deadline) costs nothing. Non-semantic —
          deliberately excluded from the cache's configuration digest *)
}

let default_config =
  {
    symbolic = true;
    use_assertions = true;
    use_derivation = true;
    algebra = true;
    eval_quota = 12;
    trip_prior = 10.0;
    flow_first = true;
    max_growth = 32;
    fault = None;
    cancel = None;
  }

let numeric_only_config = { default_config with symbolic = false }

type site = Instr of int | Term

(** Analysis result for one function. *)
type t = {
  fn : Ir.fn;
  values : Value.t array;  (** final output assignment, indexed by var id *)
  branch_probs : (int, float) Hashtbl.t;  (** block id -> P(true edge) *)
  branch_fallback : (int, bool) Hashtbl.t;  (** did the branch use heuristics *)
  visited : bool array;  (** executable blocks *)
  evaluations : int;  (** expression evaluations (Figure 5 metric) *)
  calls_seen : ((int * int) * (string * Value.t list)) list;
      (** executable call sites (block, index) with latest argument values *)
  return_value : Value.t;  (** merged over executable returns *)
  fuel_limit : int;  (** the step budget this run was given *)
  fuel_spent : int;  (** worklist steps actually taken *)
  fuel_exhausted : bool;  (** ran out of fuel before the fixed point *)
  diags : Diag.diag list;  (** this run's diagnostics, in emission order *)
}

let value t (v : Var.t) = t.values.(v.Var.id)

let branch_prob t bid = Hashtbl.find_opt t.branch_probs bid

let used_fallback t bid = Option.value ~default:false (Hashtbl.find_opt t.branch_fallback bid)

(* --- Internal analysis state --- *)

type state = {
  cfg : config;
  static : Static.t;  (** built once per run; edges are indexed by its slots *)
  dctx : Derive.ctx;
  vals : Value.t array;
  uses : (int * site) list array;  (** var id -> use sites *)
  extra_uses : (int * site) list array;  (** var id -> derivation deps *)
  svisited : bool array;
  edge_prob : float array array;
      (** block id -> per slot: conditional edge probability, [nan] = never set *)
  edge_exec : bool array array;  (** block id -> per slot: edge executed *)
  bprobs : (int, float) Hashtbl.t;
  bfallback : (int, bool) Hashtbl.t;
  freq : float array;  (** acyclic relative frequencies *)
  mutable freq_dirty : bool;
  flow_list : (int * int) Queue.t;
  ssa_list : (int * site) Queue.t;  (** target block and site to re-evaluate *)
  eval_counts : int array;  (** per-variable quota accounting *)
  mutable evals : int;
  uneven : bool array;
      (** var id -> a φ whose derived range hull is sound but unevenly
          visited (geometric inductions): branches on it use heuristics *)
  calls : (int * int, string * Value.t list) Hashtbl.t;
  call_oracle : string -> Value.t list -> Value.t;
  mutable rev_diags : Diag.diag list;  (** this run's diagnostics, newest first *)
}

let diag st ?block severity kind message =
  let loc = { Diag.fn = Some st.static.Static.fn.Ir.fname; block } in
  st.rev_diags <- { Diag.severity; kind; loc; message } :: st.rev_diags

let edge_probability st src dst =
  let k = Static.slot st.static src dst in
  if k < 0 then 0.0
  else begin
    let p = st.edge_prob.(src).(k) in
    if Float.is_nan p then 0.0 else p
  end

let edge_executable st src dst =
  let k = Static.slot st.static src dst in
  k >= 0 && st.edge_exec.(src).(k)

(* Relative block frequencies ignoring back edges (one RPO pass). Loop back
   edges contribute no mass, so a join's in-edge weights are frequencies
   relative to the enclosing region — exactly what normalised φ merging
   needs (common outer factors cancel). *)
let recompute_freq st =
  let { Static.rpo; succs; back; _ } = st.static in
  Array.fill st.freq 0 (Array.length st.freq) 0.0;
  st.freq.(Ir.entry_bid) <- 1.0;
  Array.iter
    (fun bid ->
      let f = st.freq.(bid) in
      if f > 0.0 && st.svisited.(bid) then
        Array.iteri
          (fun k succ ->
            if not back.(bid).(k) then
              st.freq.(succ) <- st.freq.(succ) +. (f *. edge_probability st bid succ))
          succs.(bid))
    rpo;
  st.freq_dirty <- false

(* Assertion-parent chain of a variable, starting with itself: used for the
   paper's special φ rule (§3.8 note: merging assertion-derived variables of
   a common parent yields the parent's range). *)
let assert_chain st (v : Var.t) : Var.t list =
  let rec go (v : Var.t) acc depth =
    if depth > 64 then List.rev acc
    else begin
      match Static.def st.static v with
      | Some (Ir.Assertion { parent; _ }) -> go parent (parent :: acc) (depth + 1)
      | Some _ | None -> List.rev acc
    end
  in
  go v [ v ] 0

(* Nearest common assertion ancestor of the φ arguments, when all arguments
   are (transitive) assertion children of it. [phi_var] is the φ's own
   definition: arguments whose assertion chain passes through it are
   {e self-refinements} (narrowed copies of the φ flowing around a loop);
   they carry no new information and are ignored, so a loop-invariant
   variable that branch assertions re-version inside the loop keeps its
   entry value instead of oscillating to ⊥. *)
let nearest_common_ancestor st ~(phi_var : Var.t) (vars : Var.t list) : Var.t option =
  let chains = List.map (fun v -> (v, assert_chain st v)) vars in
  let external_chains, self_refs =
    List.partition
      (fun (_, chain) ->
        not (List.exists (fun (a : Var.t) -> Var.equal a phi_var) chain))
      chains
  in
  match external_chains with
  | [] -> None
  | (first, first_chain) :: rest ->
    let candidate =
      List.find_opt
        (fun (a : Var.t) ->
          List.for_all
            (fun (_, chain) -> List.exists (fun (b : Var.t) -> Var.equal a b) chain)
            rest)
        first_chain
    in
    (* Require the rule to actually do something: either a self-refinement
       was dropped, or some argument strictly narrows the ancestor. *)
    (match candidate with
    | Some a
      when self_refs <> []
           || List.exists (fun v -> not (Var.equal v a)) (first :: List.map fst rest) ->
      Some a
    | Some _ | None -> None)

(* Value of an operand; [symbolic_copy] controls whether a ⊥ variable is
   represented as a symbolic copy of itself (the paper's symbolic ranges). *)
let operand_value st ~symbolic_copy (op : Ir.operand) : Value.t =
  match op with
  | Ir.Cint n -> Value.const_int n
  | Ir.Cfloat _ -> Value.bottom
  | Ir.Ovar v -> (
    match st.vals.(v.Var.id) with
    | Value.Bottom when symbolic_copy && st.cfg.symbolic && v.Var.ty = Ast.Tint ->
      Value.copy_of_var v
    | value -> value)

let lookup_value st (v : Var.t) = st.vals.(v.Var.id)

(* Resolve symbolic bases against current values (one level). Probability
   queries must only substitute exactly-known bases: a derived loop range
   [0:n:1] is correlated with n, and an independent-uniform comparison of
   the two would badly mispredict the loop branch (see Value.subst_bound). *)
let resolve st (v : Value.t) : Value.t =
  Value.subst ~only_singleton:true v ~lookup:(lookup_value st)

let enqueue_uses st (v : Var.t) =
  List.iter (fun site -> Queue.add site st.ssa_list) st.uses.(v.Var.id);
  List.iter (fun site -> Queue.add site st.ssa_list) st.extra_uses.(v.Var.id)

let register_extra_use st (dep : Var.t) site =
  let sites = st.extra_uses.(dep.Var.id) in
  if not (List.mem site sites) then st.extra_uses.(dep.Var.id) <- site :: sites

(* Record a new value for [v]; returns true when it changed. The quota
   counts *changes*: a value that keeps moving is a non-inductive
   loop-carried range and is widened to ⊥ (after which it never changes
   again), guaranteeing termination. Forced widenings — quota or range-set
   growth cap — are counted and reported instead of happening silently. *)
let set_value st (v : Var.t) (value : Value.t) : bool =
  let vid = v.Var.id in
  if Value.equal st.vals.(vid) value then false
  else begin
    st.eval_counts.(vid) <- st.eval_counts.(vid) + 1;
    let widen reason =
      Vrp_ranges.Counters.record_widening ();
      let bid = st.static.Static.def_block.(vid) in
      let block = if bid >= 0 then Some bid else None in
      diag st ?block Diag.Info Diag.Widened
        (Printf.sprintf "%s widened to ⊥: %s" (Var.to_string v) reason);
      Value.bottom
    in
    let value =
      if st.eval_counts.(vid) > st.cfg.eval_quota then begin
        if Value.is_bottom value then value
        else
          widen
            (Printf.sprintf "exceeded the %d-change evaluation quota"
               st.cfg.eval_quota)
      end
      else
        match value with
        | Value.Ranges rs when List.length rs > st.cfg.max_growth ->
          widen
            (Printf.sprintf "range set grew to %d ranges (cap %d)"
               (List.length rs) st.cfg.max_growth)
        | Value.Top | Value.Bottom | Value.Ranges _ -> value
    in
    if Value.equal st.vals.(vid) value then false
    else begin
      st.vals.(vid) <- value;
      enqueue_uses st v;
      true
    end
  end

let record_eval st =
  st.evals <- st.evals + 1;
  Counters.record_evaluation ()

(* --- Expression evaluation --- *)

let eval_phi st ~bid (v : Var.t) (args : (int * Ir.operand) list) : Value.t =
  (* Paper §3.8 note: merging assertion-derived variables of one parent (or
     a parent with its own assertion children) yields the parent's range. *)
  let exec_args =
    List.filter (fun (pred, _) -> edge_executable st pred bid) args
  in
  if exec_args = [] then Value.top
  else begin
    let arg_vars =
      List.filter_map
        (fun (_, op) -> match op with Ir.Ovar u -> Some u | Ir.Cint _ | Ir.Cfloat _ -> None)
        exec_args
    in
    let common_root =
      if List.length arg_vars = List.length exec_args then
        nearest_common_ancestor st ~phi_var:v arg_vars
      else None
    in
    match common_root with
    | Some root -> operand_value st ~symbolic_copy:true (Ir.Ovar root)
    | None ->
      if st.freq_dirty then recompute_freq st;
      let parts =
        List.map
          (fun (pred, op) ->
            let base = st.freq.(pred) *. edge_probability st pred bid in
            let w =
              if Static.is_back_edge st.static ~src:pred ~dst:bid then begin
                (* the back edge fires once per iteration: weight it by the
                   trip-count prior relative to the loop-entry mass *)
                let latch_mass =
                  if base > 0.0 then base
                  else Float.max st.freq.(pred) (edge_probability st pred bid)
                in
                st.cfg.trip_prior *. latch_mass
              end
              else base
            in
            (w, operand_value st ~symbolic_copy:false op))
          exec_args
      in
      ignore v;
      Value.union_weighted parts
  end

let eval_rhs st ~bid ~site (v : Var.t) (rhs : Ir.rhs) : Value.t =
  match rhs with
  | Ir.Op op -> operand_value st ~symbolic_copy:true op
  | Ir.Binop (op, a, b) ->
    if v.Var.ty = Ast.Tfloat && (op = Ast.Div || op = Ast.Mod) then Value.bottom
    else begin
      let va = operand_value st ~symbolic_copy:true a in
      let vb = operand_value st ~symbolic_copy:true b in
      Value.binop op va vb
    end
  | Ir.Unop (op, a) -> Value.unop op (operand_value st ~symbolic_copy:false a)
  | Ir.Cmp (rel, a, b) ->
    let va = resolve st (operand_value st ~symbolic_copy:true a) in
    let vb = resolve st (operand_value st ~symbolic_copy:true b) in
    Value.cmp_value rel va vb
  | Ir.Load _ -> Value.bottom  (* memory is opaque without alias analysis (§3.5) *)
  | Ir.Call (name, args) ->
    (* Argument ranges cross a function boundary: resolve symbolic bases
       against current values, then drop anything still symbolic — a
       caller's SSA names mean nothing inside the callee. *)
    let arg_values =
      List.map
        (fun a ->
          Value.purely_numeric (resolve st (operand_value st ~symbolic_copy:false a)))
        args
    in
    let key = match site with Instr idx -> (bid, idx) | Term -> (bid, -1) in
    Hashtbl.replace st.calls key (name, arg_values);
    st.call_oracle name arg_values
  | Ir.Phi args -> eval_phi st ~bid v args
  | Ir.Assertion { parent; arel; abound } ->
    let pv = operand_value st ~symbolic_copy:true (Ir.Ovar parent) in
    if not st.cfg.use_assertions then pv
    else begin
      (* Singleton-resolve the bound: an exactly-known base becomes numeric,
         anything else stays symbolic so same-base narrowing (i < n) keeps
         the relation. *)
      let bv = resolve st (operand_value st ~symbolic_copy:true abound) in
      ignore site;
      Value.assert_narrow pv arel bv
    end

(* Try to derive a loop-carried φ; true = handled (value recorded). *)
let try_derive st ~bid ~site (v : Var.t) (args : (int * Ir.operand) list) : bool =
  if not st.cfg.use_derivation then false
  else begin
    let has_back =
      List.exists (fun (pred, _) -> Static.is_back_edge st.static ~src:pred ~dst:bid) args
    in
    if not has_back then false
    else begin
      match
        Derive.attempt ~static:st.static ~ctx:st.dctx ~values:(lookup_value st)
          ~symbolic:st.cfg.symbolic ~phi_bid:bid ~phi_var:v ~args
      with
      | Some { value; depends; even_distribution } ->
        List.iter (fun dep -> register_extra_use st dep (bid, site)) depends;
        st.uneven.(v.Var.id) <- not even_distribution;
        record_eval st;
        ignore (set_value st v value);
        true
      | None -> false
    end
  end

let eval_instr st ~bid ~idx (instr : Ir.instr) =
  match instr with
  | Ir.Store _ -> ()
  | Ir.Def (v, rhs) ->
    let handled =
      match rhs with
      | Ir.Phi args -> try_derive st ~bid ~site:(Instr idx) v args
      | _ -> false
    in
    if not handled then begin
      record_eval st;
      let value = eval_rhs st ~bid ~site:(Instr idx) v rhs in
      ignore (set_value st v value)
    end

(* Step 7: predict the branch from the tested variable's range and mark the
   out-edges. *)
let eval_term st ~bid (term : Ir.term) =
  match term with
  | Ir.Jump dst ->
    if edge_probability st bid dst <> 1.0 then begin
      st.edge_prob.(bid).(Static.slot st.static bid dst) <- 1.0;
      st.freq_dirty <- true
    end;
    if not (edge_executable st bid dst) then Queue.add (bid, dst) st.flow_list
  | Ir.Ret _ -> ()
  | Ir.Br { rel; ba; bb; tdst; fdst } ->
    record_eval st;
    let va = resolve st (operand_value st ~symbolic_copy:true ba) in
    let vb = resolve st (operand_value st ~symbolic_copy:true bb) in
    (* A branch on an unevenly-distributed derived range (geometric
       induction) must not trust the even-distribution assumption. *)
    let uneven_operand op =
      match Ir.operand_var op with
      | Some v ->
        List.exists
          (fun (a : Var.t) -> st.uneven.(a.Var.id))
          (assert_chain st v)
      | None -> false
    in
    let prob, fallback =
      match
        (if uneven_operand ba || uneven_operand bb then None
         else Value.cmp_prob rel va vb)
      with
      | Some p -> (p, false)
      | None ->
        (Heuristics.ball_larus st.static ~src:bid { rel; ba; bb; tdst; fdst }, true)
    in
    Hashtbl.replace st.bprobs bid prob;
    Hashtbl.replace st.bfallback bid fallback;
    let update dst p =
      let k = Static.slot st.static bid dst in
      let old = st.edge_prob.(bid).(k) in
      if Float.is_nan old || Float.abs (old -. p) > Config.eps then begin
        st.edge_prob.(bid).(k) <- p;
        st.freq_dirty <- true;
        if p > 0.0 then Queue.add (bid, dst) st.flow_list
      end
    in
    update tdst prob;
    update fdst (1.0 -. prob)

let visit_block st bid =
  if not st.svisited.(bid) then begin
    st.svisited.(bid) <- true;
    st.freq_dirty <- true;
    Array.iteri
      (fun idx instr -> eval_instr st ~bid ~idx instr)
      st.static.Static.instrs.(bid);
    eval_term st ~bid (Ir.block st.static.Static.fn bid).Ir.term
  end
  else
    (* revisit: φ-functions only (step 3) *)
    Array.iteri
      (fun idx instr ->
        match instr with
        | Ir.Def (_, Ir.Phi _) -> eval_instr st ~bid ~idx instr
        | Ir.Def _ | Ir.Store _ -> ())
      st.static.Static.instrs.(bid)

let process_flow_edge st (src, dst) =
  if edge_probability st src dst > 0.0 && st.svisited.(src) then begin
    let k = Static.slot st.static src dst in
    let first = not st.edge_exec.(src).(k) in
    st.edge_exec.(src).(k) <- true;
    if first || st.svisited.(dst) then visit_block st dst
  end

let process_ssa_site st (bid, site) =
  if st.svisited.(bid) then begin
    match site with
    | Term -> eval_term st ~bid (Ir.block st.static.Static.fn bid).Ir.term
    | Instr idx -> eval_instr st ~bid ~idx st.static.Static.instrs.(bid).(idx)
  end

(* --- Use lists --- *)

(* Use sites of every variable, newest first. *)
let build_uses ({ Static.fn; instrs; _ } : Static.t) =
  let uses = Array.make fn.Ir.nvars [] in
  let add (v : Var.t) site = uses.(v.Var.id) <- site :: uses.(v.Var.id) in
  Array.iteri
    (fun bid block ->
      Array.iteri
        (fun idx instr -> List.iter (fun v -> add v (bid, Instr idx)) (Ir.instr_uses instr))
        block;
      List.iter (fun v -> add v (bid, Term)) (Ir.term_uses (Ir.block fn bid).Ir.term))
    instrs;
  uses

(* --- Top-level driver --- *)

(* How much fuel a starved (fault-injected) analysis gets: enough to start,
   never enough to finish a function with a loop. *)
let starvation_fuel = 4

(* The algebra post-pass's reach: fallback branches it was handed, and
   those it decided. *)
let algebra_attempts =
  Vrp_obs.Metrics.counter ~help:"Fallback branches handed to the algebra post-pass"
    "vrp_algebra_attempts_total"

let algebra_proofs =
  Vrp_obs.Metrics.counter ~help:"Fallback branches the algebra post-pass decided"
    "vrp_algebra_proofs_total"

(** Analyse one function. [param_values] are the ranges of the formal
    parameters (⊥ by default, i.e. unknown input); [call_oracle] supplies
    return-value ranges for calls (⊥ by default — the intraprocedural
    setting). The result carries the run's diagnostics.
    @raise Diag.Fault.Injected under crash fault injection. *)
let analyze_body ?(config = default_config)
    ?(call_oracle = fun _ _ -> Value.bottom)
    ?(param_values : Value.t list option) (fn : Ir.fn) : t =
  (* Resolve fault injection against this function. *)
  let fname = fn.Ir.fname in
  (match config.fault with
  | Some (Diag.Fault.Crash_fn f) when String.equal f fname ->
    raise (Diag.Fault.Injected (Printf.sprintf "injected crash in %s" fname))
  | Some (Diag.Fault.Hang_fn f) when String.equal f fname ->
    (* Simulated hang: the analysis stops making progress and only checks
       its deadline, which breaks it out; a CPU-time cap bounds the case
       without one so a misconfigured test degrades to a contained crash
       instead of wedging the run. *)
    let cap = Sys.time () +. 5.0 in
    let rec wedge () =
      (match config.cancel with
      | Some token -> Diag.Cancel.check token ~name:fname
      | None -> ());
      if Sys.time () > cap then
        raise
          (Diag.Fault.Injected
             (Printf.sprintf "injected hang in %s exceeded its safety cap" fname));
      Domain.cpu_relax ();
      wedge ()
    in
    wedge ()
  | _ -> ());
  let starved =
    match config.fault with
    | Some (Diag.Fault.Starve_fuel f) -> String.equal f fname
    | _ -> false
  in
  let trip_after =
    match config.fault with Some (Diag.Fault.Trip_after n) -> Some n | _ -> None
  in
  (* The one static pass of the run. *)
  let static = Static.of_fn fn in
  let nblocks = Ir.num_blocks fn in
  let succs = static.Static.succs in
  let st =
    {
      cfg = config;
      static;
      dctx = Derive.make_ctx static;
      vals = Array.make fn.Ir.nvars Value.top;
      uses = build_uses static;
      extra_uses = Array.make fn.Ir.nvars [];
      uneven = Array.make fn.Ir.nvars false;
      svisited = Array.make nblocks false;
      edge_prob = Array.map (fun s -> Array.make (Array.length s) Float.nan) succs;
      edge_exec = Array.map (fun s -> Array.make (Array.length s) false) succs;
      bprobs = Hashtbl.create 16;
      bfallback = Hashtbl.create 16;
      freq = Array.make nblocks 0.0;
      freq_dirty = true;
      flow_list = Queue.create ();
      ssa_list = Queue.create ();
      eval_counts = Array.make fn.Ir.nvars 0;
      evals = 0;
      calls = Hashtbl.create 16;
      call_oracle;
      rev_diags = [];
    }
  in
  (* Parameters: supplied ranges, or ⊥ (program input). *)
  let pvals =
    match param_values with
    | Some vs -> vs
    | None -> List.map (fun _ -> Value.bottom) fn.Ir.params
  in
  (try
     List.iter2
       (fun (p : Var.t) v -> st.vals.(p.Var.id) <- Value.purely_numeric v)
       fn.Ir.params pvals
   with Invalid_argument _ -> invalid_arg "Engine.analyze: arity mismatch");
  visit_block st Ir.entry_bid;
  (* Drain the worklists under explicit fuel accounting: every worklist step
     costs one unit of fuel, and running out is flagged — never silent. *)
  let fuel_limit =
    if starved then starvation_fuel else max 100_000 (200 * Ir.fn_size fn)
  in
  let fuel = ref fuel_limit in
  let exhausted = ref false in
  let take_flow () =
    if Queue.is_empty st.flow_list then false
    else begin
      process_flow_edge st (Queue.pop st.flow_list);
      true
    end
  in
  let take_ssa () =
    if Queue.is_empty st.ssa_list then false
    else begin
      process_ssa_site st (Queue.pop st.ssa_list);
      true
    end
  in
  while
    (not !exhausted)
    && not (Queue.is_empty st.flow_list && Queue.is_empty st.ssa_list)
  do
    if !fuel <= 0 then exhausted := true
    else begin
      (* The deadline's safe point: one clock read per step, and only for
         a run that has a deadline. A match, not a closure: the step must
         not allocate. *)
      (match config.cancel with
      | Some token -> Diag.Cancel.check token ~name:fname
      | None -> ());
      (match trip_after with
      | Some n when fuel_limit - !fuel >= n ->
        raise
          (Diag.Fault.Injected
             (Printf.sprintf "injected trip after %d steps in %s" n fname))
      | _ -> ());
      decr fuel;
      ignore
        (if config.flow_first then take_flow () || take_ssa ()
         else take_ssa () || take_flow ())
    end
  done;
  let fuel_spent = fuel_limit - !fuel in
  if !exhausted then begin
    Vrp_ranges.Counters.record_fuel_exhaustion ();
    if starved then
      diag st Diag.Info Diag.Fault_injected "fuel starved by injected fault";
    diag st Diag.Warning Diag.Budget_exhausted
      (Printf.sprintf
         "fuel exhausted after %d steps (%d flow / %d ssa items pending); \
          results are partial"
         fuel_spent
         (Queue.length st.flow_list)
         (Queue.length st.ssa_list))
  end;
  (* Symbolic algebra v2, post-fixpoint pass: harvest the converged ranges
     into the fact environment, then try to prove fallback branches one-way.
     Only fallback branches are touched — a range-derived probability is
     never overridden — and only on converged runs, since mid-run ranges are
     transient and unsound to cite as facts. Building the fact context is
     the expensive part, so it is deferred until the first candidate: a
     function whose branches all converged to range-derived probabilities
     pays nothing for having the algebra enabled. *)
  (if config.symbolic && config.algebra && not !exhausted then
     Vrp_obs.Trace.with_span "algebra" ~args:[ ("fn", fname) ] @@ fun () ->
     let alg = ref None in
     let the_alg () =
       match !alg with
       | Some a -> a
       | None ->
         let a = Alg.make static in
         Alg.add_range_facts a ~values:st.vals;
         alg := Some a;
         a
     in
     Ir.iter_blocks fn (fun b ->
         if st.svisited.(b.Ir.bid) then
           match b.Ir.term with
           | Ir.Br { rel; ba; bb; _ }
             when Option.value ~default:false
                    (Hashtbl.find_opt st.bfallback b.Ir.bid) -> (
             Vrp_obs.Metrics.inc algebra_attempts;
             match Alg.decide_branch (the_alg ()) ~bid:b.Ir.bid rel ba bb with
             | Some taken ->
               Vrp_obs.Metrics.inc algebra_proofs;
               diag st ~block:b.Ir.bid Diag.Info Diag.Note
                 (Printf.sprintf "branch proved %s-way by algebraic facts"
                    (if taken then "true" else "false"));
               Hashtbl.replace st.bprobs b.Ir.bid (if taken then 1.0 else 0.0);
               Hashtbl.replace st.bfallback b.Ir.bid false
             | None -> ())
           | Ir.Br _ | Ir.Jump _ | Ir.Ret _ -> ()));
  (* Collect the merged return value over executable returns. *)
  let returns = ref [] in
  Ir.iter_blocks fn (fun b ->
      if st.svisited.(b.Ir.bid) then
        match b.Ir.term with
        | Ir.Ret (Some op) ->
          let v =
            Value.purely_numeric (resolve st (operand_value st ~symbolic_copy:false op))
          in
          returns := (1.0, v) :: !returns
        | Ir.Ret None | Ir.Jump _ | Ir.Br _ -> ());
  let return_value =
    match !returns with [] -> Value.bottom | parts -> Value.union_weighted parts
  in
  (* Deliberately unsound off-by-one behind fault injection: shrink every
     multi-element numeric range's upper bound by one stride, so e.g. a loop
     counter's final value escapes its reported range. The fuzzing oracles
     must detect this skew from observed execution. *)
  (match config.fault with
  | Some (Diag.Fault.Skew_range f) when String.equal f fname ->
    diag st Diag.Info Diag.Fault_injected "final ranges skewed by injected fault";
    Array.iteri
      (fun i v ->
        match v with
        | Value.Ranges rs ->
          let skew (r : Vrp_ranges.Srange.t) =
            if Vrp_ranges.Srange.is_numeric r && not (Vrp_ranges.Srange.is_singleton r)
            then
              let hi = Vrp_ranges.Sym.add_const r.hi (-max 1 r.stride) in
              match Vrp_ranges.Srange.make ~p:r.p ~lo:r.lo ~hi ~stride:r.stride with
              | Some r' -> r'
              | None -> r
            else r
          in
          st.vals.(i) <- Value.Ranges (List.map skew rs)
        | Value.Top | Value.Bottom -> ())
      st.vals
  | _ -> ());
  {
    fn;
    values = st.vals;
    branch_probs = st.bprobs;
    branch_fallback = st.bfallback;
    visited = st.svisited;
    evaluations = st.evals;
    calls_seen =
      (* Sorted by site (block, index): callers of this list — jump-function
         accumulation, frequency relaxation, cache digests — must see a
         canonical order, not hash-table layout. *)
      List.sort
        (fun ((a : int * int), _) (b, _) -> compare a b)
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.calls []);
    return_value;
    fuel_limit;
    fuel_spent;
    fuel_exhausted = !exhausted;
    diags = List.rev st.rev_diags;
  }

(* Per-run observability around the core fixpoint: a counter + duration
   histogram in the registry and a scoped span (parent-linked under the
   caller's pipeline/interproc spans) when tracing is enabled. None of it
   touches analysis state, so results are byte-identical either way. *)
let runs_total =
  Vrp_obs.Metrics.counter ~help:"Engine analyze runs (one per function)"
    "vrp_engine_runs_total"

let run_seconds =
  Vrp_obs.Metrics.histogram ~help:"Engine analyze duration in seconds"
    "vrp_engine_run_seconds"

let analyze ?config ?call_oracle ?param_values (fn : Ir.fn) : t =
  Vrp_obs.Metrics.inc runs_total;
  Vrp_obs.Metrics.time run_seconds (fun () ->
      Vrp_obs.Trace.with_span "engine" ~args:[ ("fn", fn.Ir.fname) ] (fun () ->
          analyze_body ?config ?call_oracle ?param_values fn))
