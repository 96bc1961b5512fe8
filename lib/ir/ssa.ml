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
  (* Definition sites per pre-SSA variable. *)
  let defsites : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let vars : (int, Var.t) Hashtbl.t = Hashtbl.create 64 in
  Ir.iter_blocks fn (fun b ->
      List.iter
        (fun i ->
          match Ir.instr_def i with
          | Some v ->
            Hashtbl.replace vars v.Var.id v;
            let sites = Option.value ~default:[] (Hashtbl.find_opt defsites v.Var.id) in
            Hashtbl.replace defsites v.Var.id (b.bid :: sites)
          | None -> ())
        b.instrs);
  List.iter
    (fun (v : Var.t) ->
      Hashtbl.replace vars v.Var.id v;
      let sites = Option.value ~default:[] (Hashtbl.find_opt defsites v.Var.id) in
      Hashtbl.replace defsites v.Var.id (Ir.entry_bid :: sites))
    fn.params;
  Hashtbl.iter
    (fun vid sites ->
      let v = Hashtbl.find vars vid in
      let has_phi = Hashtbl.create 8 in
      let worklist = Queue.create () in
      List.iter (fun s -> Queue.add s worklist) sites;
      while not (Queue.is_empty worklist) do
        let site = Queue.pop worklist in
        List.iter
          (fun join ->
            if not (Hashtbl.mem has_phi join) then begin
              Hashtbl.replace has_phi join ();
              let jblk = Ir.block fn join in
              let args = List.map (fun pred -> (pred, Ir.Ovar v)) jblk.preds in
              jblk.instrs <- Ir.Def (v, Ir.Phi args) :: jblk.instrs;
              Queue.add join worklist
            end)
          df.(site)
      done)
    defsites

(* --- Step 3: renaming --- *)

let rename (fn : Ir.fn) (dom : Dom.t) =
  (* SSA variable id -> pre-SSA variable *)
  let orig_of : (int, Var.t) Hashtbl.t = Hashtbl.create 64 in
  let stacks : (int, Var.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let versions : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let stack_of (v : Var.t) =
    match Hashtbl.find_opt stacks v.Var.id with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.replace stacks v.Var.id s;
      s
  in
  let zero_operand (v : Var.t) =
    match v.Var.ty with Tfloat -> Ir.Cfloat 0.0 | Tint | Tvoid -> Ir.Cint 0
  in
  let current_operand (v : Var.t) =
    match !(stack_of v) with
    | top :: _ -> Ir.Ovar top
    | [] -> zero_operand v  (* never-assigned path: reads as zero *)
  in
  let current_var_exn (v : Var.t) =
    match !(stack_of v) with top :: _ -> top | [] -> v
  in
  let rewrite_operand = function
    | Ir.Ovar v -> current_operand v
    | (Ir.Cint _ | Ir.Cfloat _) as c -> c
  in
  let new_version (v : Var.t) =
    let orig = match Hashtbl.find_opt orig_of v.Var.id with Some o -> o | None -> v in
    let n = Option.value ~default:0 (Hashtbl.find_opt versions orig.Var.id) in
    Hashtbl.replace versions orig.Var.id (n + 1);
    let nv = Ir.fresh_var fn ~base:orig.Var.base ~version:n ~ty:orig.Var.ty in
    Hashtbl.replace orig_of nv.Var.id orig;
    let s = stack_of orig in
    s := nv :: !s;
    nv
  in
  (* Parameters are versioned at entry. *)
  let new_params = List.map new_version fn.params in
  let rec walk bid =
    let blk = Ir.block fn bid in
    let pushed = ref [] in
    let instrs =
      List.map
        (fun instr ->
          match instr with
          | Ir.Def (v, Ir.Phi args) ->
            let nv = new_version v in
            pushed := Hashtbl.find orig_of nv.Var.id :: !pushed;
            Ir.Def (nv, Ir.Phi args)  (* args are filled in from predecessors *)
          | Ir.Def (v, Ir.Assertion { parent; arel; abound }) ->
            let nparent = current_var_exn parent in
            let nabound = rewrite_operand abound in
            let nv = new_version v in
            pushed := Hashtbl.find orig_of nv.Var.id :: !pushed;
            Ir.Def (nv, Ir.Assertion { parent = nparent; arel; abound = nabound })
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
            let nv = new_version v in
            pushed := Hashtbl.find orig_of nv.Var.id :: !pushed;
            Ir.Def (nv, rhs)
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
    (* Fill φ arguments in successors for the edge [bid -> succ]. *)
    List.iter
      (fun succ ->
        let sblk = Ir.block fn succ in
        sblk.instrs <-
          List.map
            (fun instr ->
              match instr with
              | Ir.Def (pv, Ir.Phi args) ->
                let orig =
                  match Hashtbl.find_opt orig_of pv.Var.id with Some o -> o | None -> pv
                in
                let args =
                  List.map
                    (fun (pred, arg) ->
                      if pred = bid then (pred, current_operand orig) else (pred, arg))
                    args
                in
                Ir.Def (pv, Ir.Phi args)
              | instr -> instr)
            sblk.instrs)
      (Ir.successors blk.term);
    (* Recurse into dominator-tree children. *)
    List.iter walk dom.Dom.children.(bid);
    (* Pop what this block pushed. *)
    List.iter
      (fun (orig : Var.t) ->
        let s = stack_of orig in
        match !s with _ :: rest -> s := rest | [] -> assert false)
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
