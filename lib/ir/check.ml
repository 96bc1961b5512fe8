(** IR well-formedness and SSA invariant checks.

    Used by the test suite and callable from the CLI; [check_ssa_fn] raises
    [Violation] describing the first broken invariant. Checked invariants:

    - block ids are dense and terminator targets are in range;
    - predecessor caches match the successor relation;
    - every variable id lies in [\[0, nvars)];
    - every SSA variable has exactly one definition;
    - φ-functions have exactly one argument per predecessor, in
      correspondence with the predecessor list;
    - every use is dominated by its definition (φ uses checked at the end of
      the corresponding predecessor);
    - conditional branches have distinct targets, and each successor of a
      conditional branch has exactly one predecessor (so assertions guard a
      unique edge). *)

exception Violation of string

let failf fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt

let check_structure (fn : Ir.fn) =
  let n = Ir.num_blocks fn in
  Array.iteri
    (fun i b ->
      if b.Ir.bid <> i then failf "%s: block at index %d has id %d" fn.fname i b.Ir.bid;
      List.iter
        (fun s ->
          if s < 0 || s >= n then failf "%s: B%d jumps to out-of-range B%d" fn.fname i s)
        (Ir.successors b.Ir.term))
    fn.blocks;
  (* preds caches *)
  let expected = Array.make n [] in
  Ir.iter_blocks fn (fun b ->
      List.iter (fun s -> expected.(s) <- b.Ir.bid :: expected.(s)) (Ir.successors b.Ir.term));
  Ir.iter_blocks fn (fun b ->
      let want = List.sort Int.compare expected.(b.Ir.bid) in
      let got = List.sort Int.compare b.Ir.preds in
      if not (List.equal Int.equal want got) then
        failf "%s: B%d has stale predecessor cache" fn.fname b.Ir.bid)

let check_ssa_fn (fn : Ir.fn) =
  check_structure fn;
  let dom = Dom.compute fn in
  (* Definition points by variable id: block ([-1] while undefined) and
     index within the block ([-1] for parameters). *)
  let def_block = Array.make fn.nvars (-1) and def_idx = Array.make fn.nvars (-1) in
  let in_range what (v : Var.t) =
    if v.Var.id < 0 || v.Var.id >= fn.nvars then
      failf "%s: %s %s has id %d outside [0, %d)" fn.fname what (Var.to_string v) v.Var.id
        fn.nvars
  in
  let define what (v : Var.t) bid idx =
    in_range what v;
    if def_block.(v.Var.id) >= 0 then
      failf "%s: %s %s has multiple definitions" fn.fname what (Var.to_string v);
    def_block.(v.Var.id) <- bid;
    def_idx.(v.Var.id) <- idx
  in
  List.iter (fun v -> define "parameter" v Ir.entry_bid (-1)) fn.params;
  Ir.iter_blocks fn (fun b ->
      List.iteri
        (fun idx i ->
          match Ir.instr_def i with Some v -> define "variable" v b.Ir.bid idx | None -> ())
        b.Ir.instrs);
  let check_use ~user_bid ~user_idx (v : Var.t) =
    in_range "variable" v;
    let def_bid = def_block.(v.Var.id) in
    if def_bid < 0 then
      failf "%s: use of undefined variable %s in B%d" fn.fname (Var.to_string v) user_bid;
    let ok =
      if def_bid = user_bid then def_idx.(v.Var.id) < user_idx
      else Dom.strictly_dominates dom def_bid user_bid
    in
    if not ok then
      failf "%s: use of %s in B%d not dominated by its definition in B%d" fn.fname
        (Var.to_string v) user_bid def_bid
  in
  Ir.iter_blocks fn (fun b ->
      List.iteri
        (fun idx instr ->
          match instr with
          | Ir.Def (_, Ir.Phi args) ->
            let arg_preds = List.sort Int.compare (List.map fst args) in
            let preds = List.sort Int.compare b.Ir.preds in
            if not (List.equal Int.equal arg_preds preds) then
              failf "%s: phi in B%d has arguments %s but predecessors %s" fn.fname b.Ir.bid
                (String.concat "," (List.map string_of_int arg_preds))
                (String.concat "," (List.map string_of_int preds));
            List.iter
              (fun (pred, arg) ->
                match Ir.operand_var arg with
                | Some v ->
                  (* The argument must be available at the end of [pred]. *)
                  check_use ~user_bid:pred ~user_idx:max_int v
                | None -> ())
              args
          | instr ->
            List.iter (check_use ~user_bid:b.Ir.bid ~user_idx:idx) (Ir.instr_uses instr))
        b.Ir.instrs;
      List.iter
        (check_use ~user_bid:b.Ir.bid ~user_idx:max_int)
        (Ir.term_uses b.Ir.term);
      match b.Ir.term with
      | Ir.Br { tdst; fdst; _ } ->
        if tdst = fdst then
          failf "%s: conditional branch in B%d has identical targets" fn.fname b.Ir.bid;
        List.iter
          (fun dst ->
            if List.length (Ir.block fn dst).preds <> 1 then
              failf "%s: branch successor B%d of B%d has multiple predecessors" fn.fname dst
                b.Ir.bid)
          [ tdst; fdst ]
      | Ir.Jump _ | Ir.Ret _ -> ())
