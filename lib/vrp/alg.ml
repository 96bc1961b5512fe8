(* Per-function algebraic context for symbolic algebra v2. See alg.mli. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Dom = Vrp_ir.Dom
module Static = Vrp_ir.Static
module Sym = Vrp_ranges.Sym
module Sop = Vrp_ranges.Sop
module Value = Vrp_ranges.Value
module Srange = Vrp_ranges.Srange
module Alg_env = Vrp_ranges.Alg_env

type t = {
  static : Static.t;
  copy_of : (int, Var.t) Hashtbl.t;  (* var id -> the variable it copies *)
  expansion : (int, Sop.t) Hashtbl.t;  (* memoized polynomial per var *)
  mutable env : Alg_env.t;
}

let max_expand_depth = 8

(* Program constants admitted into equations and facts: keep well inside the
   prover's coefficient cap so its linear combinations cannot overflow. *)
let const_ok n = abs n <= Alg_env.coeff_cap

let is_int (v : Var.t) = v.Var.ty = Ast.Tint

(* Chase copy links to the canonical representative. The link table is built
   acyclic (see [copy_links]), so this terminates. *)
let rec rep ctx (v : Var.t) =
  match Hashtbl.find_opt ctx.copy_of v.Var.id with
  | Some u -> rep ctx u
  | None -> v

(* Every atom speaks the canonical representative, so facts learned about
   one SSA name of a value apply to all its copies — including copies made
   by e-SSA assertion renaming and by loop-header φs that merely shuffle an
   unmodified value around the back edge. *)
let atom ctx v = Sop.of_var (rep ctx v)

(* Expand an integer variable into a polynomial over atoms by following
   affine SSA definitions. Sound because SSA definitions are identities over
   the executions that reach any use (a use is dominated by the def), and
   assertion defs are value-copies of their parent. *)
let rec expand ctx depth (v : Var.t) : Sop.t =
  match Hashtbl.find_opt ctx.expansion v.Var.id with
  | Some s -> s
  | None ->
    let result =
      if depth >= max_expand_depth || not (is_int v) then atom ctx v
      else
        match Static.def ctx.static v with
        | None -> atom ctx v
        | Some rhs -> expand_rhs ctx depth v rhs
    in
    (* Clamp to the prover's tame window: sub-expansions are tame (memoized
       below), so a single affine step cannot wrap a coefficient, and an
       untame result falls back to the opaque atom before anyone scales it
       again. *)
    let result = if Alg_env.tame result then result else atom ctx v in
    (* Memoize only at depth 0 frontier entries too: the expansion of a var
       does not depend on the query depth that first reached it, because we
       recompute with a fresh depth budget below. *)
    Hashtbl.replace ctx.expansion v.Var.id result;
    result

and expand_rhs ctx depth v rhs =
  let eop = function
    | Ir.Cint n when const_ok n -> Some (Sop.const n)
    | Ir.Cint _ | Ir.Cfloat _ -> None
    | Ir.Ovar u -> if is_int u then Some (expand ctx (depth + 1) u) else None
  in
  let fallback = atom ctx v in
  match rhs with
  | Ir.Op a -> ( match eop a with Some s -> s | None -> fallback)
  | Ir.Binop (Ast.Add, a, b) -> (
    match (eop a, eop b) with
    | Some sa, Some sb -> Sop.add sa sb
    | _ -> fallback)
  | Ir.Binop (Ast.Sub, a, b) -> (
    match (eop a, eop b) with
    | Some sa, Some sb -> Sop.sub sa sb
    | _ -> fallback)
  | Ir.Binop (Ast.Mul, a, b) -> (
    match (eop a, eop b) with
    | Some sa, Some sb -> (
      match Sop.mul sa sb with Some s -> s | None -> fallback)
    | _ -> fallback)
  | Ir.Binop (Ast.Shl, a, Ir.Cint k) when k >= 0 && k <= 20 -> (
    match eop a with Some sa -> Sop.scale (1 lsl k) sa | None -> fallback)
  | Ir.Unop (Ir.Neg, a) -> (
    match eop a with Some sa -> Sop.neg sa | None -> fallback)
  | Ir.Assertion { parent; _ } ->
    if is_int parent then expand ctx (depth + 1) parent else fallback
  | Ir.Binop _ | Ir.Unop _ | Ir.Cmp _ | Ir.Load _ | Ir.Call _ | Ir.Phi _ ->
    fallback

let expand0 ctx v = expand ctx 0 v

let operand_sop ctx = function
  | Ir.Cint n when const_ok n -> Some (Sop.const n)
  | Ir.Cint _ | Ir.Cfloat _ -> None
  | Ir.Ovar v -> if is_int v then Some (expand0 ctx v) else None

(* Collect assertion facts, scoped to the assertion's block. *)
let assertion_facts ctx =
  Ir.iter_blocks ctx.static.Static.fn (fun b ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Def (v, Ir.Assertion { parent; arel; abound }) when is_int v -> (
            match
              (if is_int parent then Some (expand0 ctx parent) else None),
              operand_sop ctx abound
            with
            | Some sp, Some sb ->
              let scope = b.Ir.bid in
              ctx.env <-
                (match arel with
                | Ast.Lt -> Alg_env.add_lt ~scope ctx.env sp sb
                | Ast.Le -> Alg_env.add_le ~scope ctx.env sp sb
                | Ast.Gt -> Alg_env.add_lt ~scope ctx.env sb sp
                | Ast.Ge -> Alg_env.add_le ~scope ctx.env sb sp
                | Ast.Eq -> Alg_env.add_eq ~scope ctx.env sp sb
                | Ast.Ne -> ctx.env)
            | _ -> ())
          | _ -> ())
        b.Ir.instrs)

(* Build the copy-link table. A link [v -> u] means v holds exactly u's
   value on every execution where v is defined. Three sound shapes:

   - [v = op u]: a plain move.
   - [v = assert(parent ...)]: e-SSA assertions are value-copies of their
     parent; only the deduced range differs, never the value.
   - [v = φ(...)] where every input is (transitively) a copy of one
     variable [u], or of v itself (a self-copy's edge cannot be the first
     to execute, by dominance, so the value always originates from [u]).

   The φ case iterates to a fixpoint so chained loop-header renames
   collapse through each other: with [n.1 = φ(n.0, n.7)],
   [n.7 = φ(n.5, n.8)], [n.5/n.8] assertion-copies of n.1, the inner φs
   first collapse to n.1, which then turns them into self-copies of n.1
   and collapses n.1 itself onto the entry value n.0.

   Acyclicity invariant: a link [v -> u] is only added while v is
   unlinked and [rep u <> v], so no chase can return to v; [rep] always
   terminates. *)
let copy_links ctx =
  let link v u =
    let u = rep ctx u in
    if not (Var.equal u v) then Hashtbl.replace ctx.copy_of v.Var.id u
  in
  let phis = ref [] in
  Ir.iter_blocks ctx.static.Static.fn (fun b ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Def (v, Ir.Op (Ir.Ovar u)) when is_int v && is_int u -> link v u
          | Ir.Def (v, Ir.Assertion { parent; _ }) when is_int v && is_int parent ->
            link v parent
          | Ir.Def (v, Ir.Phi args) when is_int v -> phis := (v, args) :: !phis
          | _ -> ())
        b.Ir.instrs);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun ((v : Var.t), args) ->
        if not (Hashtbl.mem ctx.copy_of v.Var.id) then
          let input_rep (_, op) =
            match op with
            | Ir.Ovar u when is_int u -> Some (rep ctx u)
            | Ir.Ovar _ | Ir.Cint _ | Ir.Cfloat _ -> None
          in
          match
            List.fold_left
              (fun acc arg ->
                match (acc, input_rep arg) with
                | Some rs, Some r -> Some (r :: rs)
                | _, _ -> None)
              (Some []) args
          with
          | Some reps -> (
            match List.filter (fun r -> not (Var.equal r v)) reps with
            | r :: rest when List.for_all (Var.equal r) rest ->
              link v r;
              if Hashtbl.mem ctx.copy_of v.Var.id then changed := true
            | _ -> ())
          | None -> ())
      !phis
  done

(* φ-nodes: poly collapse and induction bounds. Pure copy webs are already
   unified by [copy_links]; this pass covers the residual sound shapes.

   - Collapse: when every input of an integer φ expands to one polynomial
     [p] not mentioning the φ (inputs that are plain copies of the φ itself
     are allowed: their edge cannot be the first to execute, by dominance),
     the φ merely shuffles one value around the loop and [v = p] holds.
   - Induction: when every input is a constant or the φ itself plus a
     constant, the φ is bounded below by the least constant (if no step is
     negative) and above by the greatest (if no step is positive) — e.g.
     [i = φ(0, i + 1)] gives [i >= 0]. Sound by induction on iteration
     count: the first execution of the φ's block arrives via a constant
     input, and each step preserves the bound.

   Facts are scoped to the φ's block. *)
let phi_facts ctx =
  Ir.iter_blocks ctx.static.Static.fn (fun b ->
      List.iter
        (fun instr ->
          match instr with
          | Ir.Def (v, Ir.Phi args)
            when is_int v && not (Hashtbl.mem ctx.copy_of v.Var.id) -> (
            let self = atom ctx v in
            let exps =
              List.map (fun (_, op) -> operand_sop ctx op) args
            in
            if List.for_all Option.is_some exps then
              let exps = List.map Option.get exps in
              let scope = b.Ir.bid in
              let non_self =
                List.filter (fun e -> not (Sop.equal e self)) exps
              in
              match non_self with
              | p :: rest
                when List.for_all (Sop.equal p) rest
                     && not (List.exists (Var.equal v) (Sop.vars p)) ->
                ctx.env <- Alg_env.add_eq ~scope ctx.env self p
              | _ -> (
                let classify e =
                  match Sop.const_value e with
                  | Some c -> Some (`Const c)
                  | None -> (
                    match Sop.const_value (Sop.sub e self) with
                    | Some k -> Some (`Step k)
                    | None -> None)
                in
                match
                  List.fold_left
                    (fun acc e ->
                      match (acc, classify e) with
                      | Some (cs, ks), Some (`Const c) -> Some (c :: cs, ks)
                      | Some (cs, ks), Some (`Step k) -> Some (cs, k :: ks)
                      | _, _ -> None)
                    (Some ([], []))
                    exps
                with
                | Some ((_ :: _ as cs), ks) ->
                  if List.for_all (fun k -> k >= 0) ks then
                    ctx.env <-
                      Alg_env.add_le ~scope ctx.env
                        (Sop.const (List.fold_left min max_int cs))
                        self;
                  if List.for_all (fun k -> k <= 0) ks then
                    ctx.env <-
                      Alg_env.add_le ~scope ctx.env self
                        (Sop.const (List.fold_left max min_int cs))
                | _ -> ()))
          | _ -> ())
        b.Ir.instrs)

let make static =
  let ctx =
    { static; copy_of = Hashtbl.create 32; expansion = Hashtbl.create 64; env = Alg_env.empty }
  in
  copy_links ctx;
  phi_facts ctx;
  assertion_facts ctx;
  ctx.env <- Alg_env.refine ctx.env;
  ctx

let admit_at ctx bid scope_bid = Dom.dominates ctx.static.Static.dom scope_bid bid

let decide_at ctx ~bid rel a b =
  Alg_env.decide ~admit:(admit_at ctx bid) ctx.env rel a b

let sop_of_sym ctx (s : Sym.t) =
  match s.Sym.base with
  | None -> Some (Sop.const s.Sym.off)
  | Some v ->
    if is_int v then Some (Sop.add (expand0 ctx v) (Sop.const s.Sym.off))
    else None

(* Post-fixpoint harvesting: converged per-variable ranges become facts.
   Only bounds that hold for *every* range of the value are usable; fold
   them with Sym's min/max. *)
let add_range_facts ctx ~values =
  let bound_fact v sop_v value =
    match value with
    | Value.Ranges rs when rs <> [] ->
      let fold pick f =
        List.fold_left
          (fun acc (r : Srange.t) ->
            match acc with
            | None -> None
            | Some s -> pick s (f r))
          (match rs with
          | r :: _ -> Some (f r)
          | [] -> None)
          (List.tl rs)
      in
      (* A parameter's facts hold from the entry block on. *)
      let scope = max Ir.entry_bid ctx.static.Static.def_block.(v.Var.id) in
      let add_one mk =
        match mk with
        | None -> ()
        | Some fact_poly -> ctx.env <- Alg_env.add_nonneg ~scope ctx.env fact_poly
      in
      let lo =
        match fold Sym.min_sym (fun r -> r.Srange.lo) with
        | Some lo when not (Sym.too_big lo) -> (
          match sop_of_sym ctx lo with
          | Some slo -> Some (Sop.sub sop_v slo) (* v - lo >= 0 *)
          | None -> None)
        | _ -> None
      in
      let hi =
        match fold Sym.max_sym (fun r -> r.Srange.hi) with
        | Some hi when not (Sym.too_big hi) -> (
          match sop_of_sym ctx hi with
          | Some shi -> Some (Sop.sub shi sop_v) (* hi - v >= 0 *)
          | None -> None)
        | _ -> None
      in
      add_one lo;
      add_one hi
    | Value.Ranges _ | Value.Top | Value.Bottom -> ()
  in
  let { Static.fn; instrs; _ } = ctx.static in
  fn.Ir.params
  @ List.concat_map (fun is -> List.filter_map Ir.instr_def (Array.to_list is))
      (Array.to_list instrs)
  |> List.sort Var.compare
  |> List.iter (fun (v : Var.t) ->
         if is_int v && v.Var.id < Array.length values then
           bound_fact v (expand0 ctx v) values.(v.Var.id));
  ctx.env <- Alg_env.refine ctx.env

let decide_branch ctx ~bid rel ba bb =
  match (operand_sop ctx ba, operand_sop ctx bb) with
  | Some sa, Some sb -> decide_at ctx ~bid rel sa sb
  | _ -> None

let prove_index_bounds ctx ~bid ~size idx =
  match operand_sop ctx idx with
  | None -> (false, false)
  | Some s ->
    let admit = admit_at ctx bid in
    let lower = Alg_env.prove_nonneg ~admit ctx.env s in
    let upper =
      Alg_env.prove_nonneg ~admit ctx.env (Sop.sub (Sop.const (size - 1)) s)
    in
    (lower, upper)

let to_string ctx = Alg_env.to_string ctx.env
