(** Every static CFG fact of one function, computed once (see the
    interface). *)

type t = {
  fn : Ir.fn;
  dom : Dom.t;
  postdom : Dom.t;
  loops : Loops.t;
  rpo : int array;
  instrs : Ir.instr array array;
  succs : int array array;
  back : bool array array;
  def_block : int array;
  def_idx : int array;
}

let of_fn (fn : Ir.fn) : t =
  let dom = Dom.compute fn in
  let nblocks = Ir.num_blocks fn in
  let instrs = Array.init nblocks (fun bid -> Array.of_list (Ir.block fn bid).Ir.instrs) in
  let succs =
    Array.init nblocks (fun bid -> Array.of_list (Ir.successors (Ir.block fn bid).Ir.term))
  in
  (* The DFS behind [dom] already numbered the reachable blocks. *)
  let reachable = Array.fold_left (fun n i -> if i >= 0 then n + 1 else n) 0 dom.rpo_index in
  let rpo = Array.make reachable 0 in
  Array.iteri (fun bid i -> if i >= 0 then rpo.(i) <- bid) dom.rpo_index;
  let def_block = Array.make fn.Ir.nvars (-1) in
  let def_idx = Array.make fn.Ir.nvars (-1) in
  Array.iteri
    (fun bid block ->
      Array.iteri
        (fun idx instr ->
          match Ir.instr_def instr with
          | Some v ->
            def_block.(v.Var.id) <- bid;
            def_idx.(v.Var.id) <- idx
          | None -> ())
        block)
    instrs;
  {
    fn;
    dom;
    postdom = Dom.compute_post fn;
    loops = Loops.compute fn dom;
    rpo;
    instrs;
    succs;
    back = Array.mapi (fun src -> Array.map (fun dst -> Dom.dominates dom dst src)) succs;
    def_block;
    def_idx;
  }

let slot t src dst =
  let s = t.succs.(src) in
  let k = ref 0 in
  while !k < Array.length s && s.(!k) <> dst do
    incr k
  done;
  if !k < Array.length s then !k else -1

let is_back_edge t ~src ~dst =
  let k = slot t src dst in
  k >= 0 && t.back.(src).(k)

let def t (v : Var.t) =
  let bid = t.def_block.(v.Var.id) in
  if bid < 0 then None
  else
    match t.instrs.(bid).(t.def_idx.(v.Var.id)) with
    | Ir.Def (_, rhs) -> Some rhs
    | Ir.Store _ -> None
