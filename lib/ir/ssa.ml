(** SSA construction (Cytron et al.) with the paper's branch assertions.

    The pass has three steps:

    1. {b assertion insertion} (paper §3.8): after a conditional branch
       [a rel b], the unique successor on the true edge gets
       [a' = assert(a rel b)] (and [b' = assert(b rel' a)] when [b] is a
       variable); the false edge gets the negated predicate. Critical edges
       were split during construction, so each successor of a branch has one
       predecessor and the assertion narrows exactly that path.
    2. {b φ placement} on iterated dominance frontiers of each variable's
       definition sites.
    3. {b renaming} by a dominator-tree walk. A use whose renaming stack is
       empty denotes a path on which the variable was never assigned; MiniC
       defines such reads as zero, so the use is replaced by the constant 0
       (matching the interpreter's semantics exactly).

    The result is the canonical factored single-assignment form the paper's
    propagation runs on. *)

open Vrp_lang.Ast

(* --- Step 1: assertion insertion --- *)

let insert_assertions (fn : Ir.fn) =
  Ir.iter_blocks fn (fun b ->
      match b.term with
      | Ir.Br { rel; ba; bb; tdst; fdst } when tdst <> fdst ->
        let add_asserts dst rel =
          let dblk = Ir.block fn dst in
          if List.length dblk.preds = 1 then begin
            let asserts = ref [] in
            (match ba with
            | Ir.Ovar va ->
              asserts :=
                Ir.Def (va, Ir.Assertion { parent = va; arel = rel; abound = bb })
                :: !asserts
            | Ir.Cint _ | Ir.Cfloat _ -> ());
            (match bb with
            | Ir.Ovar vb ->
              asserts :=
                Ir.Def
                  (vb, Ir.Assertion { parent = vb; arel = relop_swap rel; abound = ba })
                :: !asserts
            | Ir.Cint _ | Ir.Cfloat _ -> ());
            dblk.instrs <- List.rev_append !asserts dblk.instrs
          end
        in
        add_asserts tdst rel;
        add_asserts fdst (relop_negate rel)
      | Ir.Br _ | Ir.Jump _ | Ir.Ret _ -> ())

(* --- Step 2: φ placement --- *)

let place_phis (fn : Ir.fn) (dom : Dom.t) =
  let df = Dom.frontiers fn dom in
  (* Definition sites and the variable, per pre-SSA variable id. *)
  let defsites = Array.make fn.nvars [] in
  let vars = Array.make fn.nvars None in
  (* The φs of a join block come out in the order variables are placed, so
     that order is part of the IR. It stays the iteration order of this
     table of variable ids, filled in first-definition order: placing by
     ascending id instead would reorder φs. *)
  let order : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let add_site (v : Var.t) bid =
    let vid = v.Var.id in
    (match defsites.(vid) with [] -> Hashtbl.replace order vid () | _ :: _ -> ());
    vars.(vid) <- Some v;
    defsites.(vid) <- bid :: defsites.(vid)
  in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i -> match Ir.instr_def i with Some v -> add_site v b.bid | None -> ())
        b.instrs);
  List.iter (fun v -> add_site v Ir.entry_bid) fn.params;
  (* [has_phi.(join) = vid]: [join] already holds a φ for variable [vid]. *)
  let has_phi = Array.make (Ir.num_blocks fn) (-1) in
  let worklist = Queue.create () in
  let place vid () =
    let v = Option.get vars.(vid) in
    List.iter (fun s -> Queue.add s worklist) defsites.(vid);
    while not (Queue.is_empty worklist) do
      let site = Queue.pop worklist in
      List.iter
        (fun join ->
          if has_phi.(join) <> vid then begin
            has_phi.(join) <- vid;
            let jblk = Ir.block fn join in
            let args = List.map (fun pred -> (pred, Ir.Ovar v)) jblk.preds in
            jblk.instrs <- Ir.Def (v, Ir.Phi args) :: jblk.instrs;
            Queue.add join worklist
          end)
        df.(site)
    done
  in
  Hashtbl.iter place order

(* --- Step 3: renaming --- *)

(* How many variables renaming mints: one per definition, parameters
   included. *)
let count_defs (fn : Ir.fn) =
  Array.fold_left
    (fun n (b : Ir.block) ->
      List.fold_left (fun n i -> match i with Ir.Def _ -> n + 1 | Ir.Store _ -> n) n b.instrs)
    (List.length fn.params) fn.blocks

let rename (fn : Ir.fn) (dom : Dom.t) =
  (* Pre-SSA variables have ids below [first]; renaming mints the ids from
     [first] on. *)
  let first = fn.nvars in
  (* SSA variable id - [first] -> pre-SSA variable *)
  let orig_of = Array.make (count_defs fn) None in
  (* Per pre-SSA variable id: its renaming stack and next version. *)
  let stacks = Array.make first [] in
  let versions = Array.make first 0 in
  let orig (v : Var.t) =
    if v.Var.id >= first then Option.get orig_of.(v.Var.id - first) else v
  in
  let zero_operand (v : Var.t) =
    match v.Var.ty with Tfloat -> Ir.Cfloat 0.0 | Tint | Tvoid -> Ir.Cint 0
  in
  let current_operand (v : Var.t) =
    match stacks.(v.Var.id) with
    | top :: _ -> Ir.Ovar top
    | [] -> zero_operand v  (* never-assigned path: reads as zero *)
  in
  let current_var_exn (v : Var.t) =
    match stacks.(v.Var.id) with top :: _ -> top | [] -> v
  in
  let rewrite_operand = function
    | Ir.Ovar v -> current_operand v
    | (Ir.Cint _ | Ir.Cfloat _) as c -> c
  in
  (* [v] is a pre-SSA variable: every definition renaming visits still
     names its source variable. *)
  let new_version (v : Var.t) =
    let n = versions.(v.Var.id) in
    versions.(v.Var.id) <- n + 1;
    let nv = Ir.fresh_var fn ~base:v.Var.base ~version:n ~ty:v.Var.ty in
    orig_of.(nv.Var.id - first) <- Some v;
    stacks.(v.Var.id) <- nv :: stacks.(v.Var.id);
    nv
  in
  (* Parameters are versioned at entry. *)
  let new_params = List.map new_version fn.params in
  let rec walk bid =
    let blk = Ir.block fn bid in
    let pushed = ref [] in
    let define v =
      pushed := v :: !pushed;
      new_version v
    in
    let instrs =
      List.map
        (fun instr ->
          match instr with
          | Ir.Def (v, Ir.Phi args) ->
            Ir.Def (define v, Ir.Phi args)  (* args are filled in from predecessors *)
          | Ir.Def (v, Ir.Assertion { parent; arel; abound }) ->
            let nparent = current_var_exn parent in
            let nabound = rewrite_operand abound in
            Ir.Def (define v, Ir.Assertion { parent = nparent; arel; abound = nabound })
          | Ir.Def (v, rhs) ->
            let rhs =
              match rhs with
              | Ir.Op a -> Ir.Op (rewrite_operand a)
              | Ir.Binop (op, a, b) -> Ir.Binop (op, rewrite_operand a, rewrite_operand b)
              | Ir.Unop (op, a) -> Ir.Unop (op, rewrite_operand a)
              | Ir.Cmp (op, a, b) -> Ir.Cmp (op, rewrite_operand a, rewrite_operand b)
              | Ir.Load (arr, idx) -> Ir.Load (arr, rewrite_operand idx)
              | Ir.Call (name, args) -> Ir.Call (name, List.map rewrite_operand args)
              | Ir.Phi _ | Ir.Assertion _ -> assert false
            in
            Ir.Def (define v, rhs)
          | Ir.Store (arr, idx, v) ->
            Ir.Store (arr, rewrite_operand idx, rewrite_operand v))
        blk.instrs
    in
    blk.instrs <- instrs;
    (blk.term <-
       (match blk.term with
       | Ir.Jump _ as t -> t
       | Ir.Br br -> Ir.Br { br with ba = rewrite_operand br.ba; bb = rewrite_operand br.bb }
       | Ir.Ret None -> Ir.Ret None
       | Ir.Ret (Some op) -> Ir.Ret (Some (rewrite_operand op))));
    (* Fill φ arguments in successors for the edge [bid -> succ]. The
       instructions after the last φ are shared, not copied. *)
    let rec fill_phis instrs =
      match instrs with
      | [] -> instrs
      | Ir.Def (pv, Ir.Phi args) :: rest ->
        let orig = orig pv in
        let args =
          List.map
            (fun ((pred, _) as arg) -> if pred = bid then (pred, current_operand orig) else arg)
            args
        in
        Ir.Def (pv, Ir.Phi args) :: fill_phis rest
      | instr :: rest ->
        let filled = fill_phis rest in
        if filled == rest then instrs else instr :: filled
    in
    List.iter
      (fun succ ->
        let sblk = Ir.block fn succ in
        sblk.instrs <- fill_phis sblk.instrs)
      (Ir.successors blk.term);
    (* Recurse into dominator-tree children. *)
    List.iter walk dom.Dom.children.(bid);
    (* Pop what this block pushed. *)
    List.iter
      (fun (v : Var.t) ->
        match stacks.(v.Var.id) with
        | _ :: rest -> stacks.(v.Var.id) <- rest
        | [] -> assert false)
      !pushed
  in
  walk Ir.entry_bid;
  new_params

(** Convert [fn] to SSA in place (assertions + φs + renaming); returns it
    with its re-versioned parameter list. *)
let transform (fn : Ir.fn) : Ir.fn =
  insert_assertions fn;
  let dom = Dom.compute fn in
  place_phis fn dom;
  (* Rename first: it mints fresh variables, bumping [fn.nvars]. *)
  let params = rename fn dom in
  { fn with Ir.params = params }
