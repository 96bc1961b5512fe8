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
  pre : int array;  (** preorder number in the dominator forest *)
  last : int array;  (** largest preorder number in the node's subtree *)
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

(* Preorder numbers of the dominator forest rooted at every node without an
   immediate dominator (the root, and each unreachable node on its own).
   A node's subtree is then the interval [pre, last] of its number. *)
let number_tree ~nblocks ~idom ~children =
  let pre = Array.make nblocks 0 and last = Array.make nblocks 0 in
  let node_at = Array.make nblocks 0 and rest_at = Array.make nblocks [] in
  let depth = ref 0 and next = ref 0 in
  let enter node =
    pre.(node) <- !next;
    incr next;
    node_at.(!depth) <- node;
    rest_at.(!depth) <- children.(node);
    incr depth
  in
  for node = 0 to nblocks - 1 do
    if idom.(node) < 0 then begin
      enter node;
      while !depth > 0 do
        let top = !depth - 1 in
        match rest_at.(top) with
        | [] ->
          depth := top;
          last.(node_at.(top)) <- !next - 1
        | child :: later ->
          rest_at.(top) <- later;
          enter child
      done
    end
  done;
  (pre, last)

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
  (* The meet of the processed predecessors; [-1] when there is none. *)
  let rec meet acc = function
    | [] -> acc
    | p :: rest ->
      if rpo_index.(p) < 0 || idom.(p) < 0 then meet acc rest
      else meet (if acc < 0 then p else intersect acc p) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        if node <> root then begin
          let new_idom = meet (-1) (preds node) in
          if new_idom >= 0 && idom.(node) <> new_idom then begin
            idom.(node) <- new_idom;
            changed := true
          end
        end)
      rpo
  done;
  idom.(root) <- -1;
  let children = Array.make nblocks [] in
  for node = nblocks - 1 downto 0 do
    let d = idom.(node) in
    if d >= 0 then children.(d) <- node :: children.(d)
  done;
  let pre, last = number_tree ~nblocks ~idom ~children in
  { idom; rpo_index; children; root; pre; last }

(** Dominator tree of [fn] (root = entry block). *)
let compute (fn : Ir.fn) : t =
  compute_generic ~nblocks:(Ir.num_blocks fn)
    ~succs:(fun bid -> Ir.successors (Ir.block fn bid).term)
    ~preds:(fun bid -> (Ir.block fn bid).preds)
    ~root:Ir.entry_bid

(** [dominates t a b] — does [a] dominate [b] (reflexively)? A reachable
    [b] is dominated by exactly its ancestors in the dominator tree, the
    nodes whose preorder interval holds [b]'s number. *)
let dominates t a b =
  a = b || (t.rpo_index.(b) >= 0 && t.pre.(a) <= t.pre.(b) && t.pre.(b) <= t.last.(a))

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
