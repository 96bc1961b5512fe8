(** Dominator trees and dominance frontiers.

    Implementation of Cooper, Harvey & Kennedy, "A Simple, Fast Dominance
    Algorithm". The module is graph-generic so the same code computes
    postdominators on the reversed CFG (needed by the Ball–Larus
    heuristics). *)

type t = {
  idom : int array;  (** immediate dominator; [-1] for the root / unreachable *)
  rpo_index : int array;  (** position in reverse postorder; [-1] if unreachable *)
  children : int list array;  (** dominator-tree children *)
  root : int;
}

(** Reverse postorder of the reachable nodes from [root]: the order of a
    depth-first search that visits successors in list order. *)
let reverse_postorder ~nblocks ~succs ~root =
  let visited = Array.make nblocks false in
  let order = ref [] in
  (* Explicit stack of (node, successors still to visit), so deep CFGs do
     not grow the call stack. *)
  let stack = ref [] in
  let enter node =
    visited.(node) <- true;
    stack := (node, succs node) :: !stack
  in
  enter root;
  while !stack <> [] do
    match !stack with
    | (node, []) :: rest ->
      stack := rest;
      order := node :: !order
    | (node, succ :: later) :: rest ->
      stack := (node, later) :: rest;
      if not visited.(succ) then enter succ
    | [] -> ()
  done;
  Array.of_list !order

let compute_generic ~nblocks ~succs ~preds ~root : t =
  let rpo = reverse_postorder ~nblocks ~succs ~root in
  let rpo_index = Array.make nblocks (-1) in
  Array.iteri (fun i node -> rpo_index.(node) <- i) rpo;
  let idom = Array.make nblocks (-1) in
  idom.(root) <- root;
  let rec intersect a b =
    if a = b then a
    else if rpo_index.(a) > rpo_index.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        if node <> root then begin
          let processed_preds =
            List.filter (fun p -> rpo_index.(p) >= 0 && idom.(p) >= 0) (preds node)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
            let new_idom = List.fold_left (fun acc p -> intersect acc p) first rest in
            if idom.(node) <> new_idom then begin
              idom.(node) <- new_idom;
              changed := true
            end
        end)
      rpo
  done;
  idom.(root) <- -1;
  let children = Array.make nblocks [] in
  for node = 0 to nblocks - 1 do
    let d = idom.(node) in
    if d >= 0 then children.(d) <- node :: children.(d)
  done;
  Array.iteri (fun i cs -> children.(i) <- List.rev cs) children;
  { idom; rpo_index; children; root }

(** Dominator tree of [fn] (root = entry block). *)
let compute (fn : Ir.fn) : t =
  compute_generic ~nblocks:(Ir.num_blocks fn)
    ~succs:(fun bid -> Ir.successors (Ir.block fn bid).term)
    ~preds:(fun bid -> (Ir.block fn bid).preds)
    ~root:Ir.entry_bid

(** [dominates t a b] — does [a] dominate [b] (reflexively)? *)
let dominates t a b =
  let rec walk node = node = a || (t.idom.(node) >= 0 && walk t.idom.(node)) in
  a = b || (t.rpo_index.(b) >= 0 && walk b)

let strictly_dominates t a b = a <> b && dominates t a b

(** Dominance frontiers (Cytron et al.), for φ placement. *)
let frontiers (fn : Ir.fn) (t : t) : int list array =
  let n = Ir.num_blocks fn in
  let df = Array.make n [] in
  let add bid node = if not (List.mem node df.(bid)) then df.(bid) <- node :: df.(bid) in
  Ir.iter_blocks fn (fun b ->
      if List.length b.preds >= 2 then
        List.iter
          (fun pred ->
            if t.rpo_index.(pred) >= 0 then begin
              let runner = ref pred in
              while !runner <> t.idom.(b.bid) && !runner >= 0 do
                add !runner b.bid;
                runner := t.idom.(!runner)
              done
            end)
          b.preds);
  df

(** Postdominator tree. Computed on the reversed CFG with a virtual exit
    node (id [num_blocks fn]) that every [Ret] block — and, to handle
    infinite loops, every block with no reachable exit — feeds into.
    [idom.(b)] is then the immediate postdominator, with the virtual exit as
    root. *)
let compute_post (fn : Ir.fn) : t =
  let n = Ir.num_blocks fn in
  let virtual_exit = n in
  let exits =
    Array.to_list fn.blocks
    |> List.filter_map (fun (b : Ir.block) ->
           match b.term with Ir.Ret _ -> Some b.bid | Ir.Jump _ | Ir.Br _ -> None)
  in
  let rsuccs bid = if bid = virtual_exit then exits else (Ir.block fn bid).preds in
  let rpreds bid =
    if bid = virtual_exit then []
    else begin
      let s = Ir.successors (Ir.block fn bid).term in
      if s = [] then [ virtual_exit ] else s
    end
  in
  compute_generic ~nblocks:(n + 1) ~succs:rsuccs ~preds:rpreds ~root:virtual_exit

(** [postdominates pt a b]: every path from [b] to exit passes through [a].
    Uses the tree from {!compute_post}. *)
let postdominates (pt : t) a b = dominates pt a b
