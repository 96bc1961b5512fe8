(** Static branch-prediction heuristics: the 90/50 rule and the Ball–Larus
    heuristic set, with Wu–Larus hit-rate probabilities.

    These are the baselines of the paper's evaluation and also its fallback:
    "Heuristics similar to those of [BallLarus93] were used in cases where
    the value range propagation algorithm encountered a branch with a
    variable whose value range was ⊥" (§5).

    The hit rates attached to each heuristic are the empirical frequencies
    published by Wu & Larus (1994, Table 1); the Dempster–Shafer combination
    of all applicable heuristics produces the final probability.

    Our IR has no linear code layout, so "backward branch" (90/50) is
    interpreted structurally: an edge is backward when it is a CFG back edge
    or keeps execution inside the branch's innermost loop while the other
    edge leaves it — which is what backward conditional branches are in
    compiled code. MiniC has no pointers, so the Ball–Larus pointer
    heuristic never applies (documented substitution; its absence only
    removes one evidence source).

    Every heuristic reads the function's {!Vrp_ir.Static} record — loops,
    back edges, postdominators, block contents — and builds nothing. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Dom = Vrp_ir.Dom
module Loops = Vrp_ir.Loops
module Static = Vrp_ir.Static

(* --- Wu–Larus hit rates --- *)

let lbh_prob = 0.88 (* loop branch *)
let leh_prob = 0.80 (* loop exit *)
let lhh_prob = 0.75 (* loop header *)
let ch_prob = 0.78 (* call *)
let oh_prob = 0.84 (* opcode *)
let gh_prob = 0.62 (* guard *)
let sh_prob = 0.55 (* store *)
let rh_prob = 0.72 (* return *)

let block_has_call (st : Static.t) bid =
  Array.exists
    (fun instr ->
      match instr with Ir.Def (_, Ir.Call _) -> true | Ir.Def _ | Ir.Store _ -> false)
    st.instrs.(bid)

let block_has_store (st : Static.t) bid =
  Array.exists
    (fun instr -> match instr with Ir.Store _ -> true | Ir.Def _ -> false)
    st.instrs.(bid)

let block_returns (st : Static.t) bid =
  match (Ir.block st.fn bid).term with Ir.Ret _ -> true | Ir.Jump _ | Ir.Br _ -> false

let postdominates (st : Static.t) a b = Dom.postdominates st.postdom a b

(* Each heuristic: Some p = predicted probability of taking the TRUE edge. *)

(** Loop branch: predict the edge that is a back edge (or directly enters the
    loop body when the other edge exits the loop). *)
let loop_branch (st : Static.t) ~src (br : Ir.branch) =
  let is_back dst = Static.is_back_edge st ~src ~dst in
  let t_back = is_back br.tdst and f_back = is_back br.fdst in
  if t_back && not f_back then Some lbh_prob
  else if f_back && not t_back then Some (1.0 -. lbh_prob)
  else begin
    (* header-style loop branch: one edge stays in the innermost loop of
       [src], the other leaves it *)
    let t_exit = Loops.is_loop_exit_edge st.loops ~src ~dst:br.tdst in
    let f_exit = Loops.is_loop_exit_edge st.loops ~src ~dst:br.fdst in
    if Loops.in_loop st.loops src then
      if t_exit && not f_exit then Some (1.0 -. lbh_prob)
      else if f_exit && not t_exit then Some lbh_prob
      else None
    else None
  end

(** Loop exit: inside a loop, neither successor a loop header, one edge
    leaves the loop — predict it is not taken. (Subsumed by our loop-branch
    formulation for header branches; still fires for breaks.) *)
let loop_exit (st : Static.t) ~src (br : Ir.branch) =
  if not (Loops.in_loop st.loops src) then None
  else if Loops.is_loop_header st.loops br.tdst || Loops.is_loop_header st.loops br.fdst
  then None
  else begin
    let t_exit = Loops.is_loop_exit_edge st.loops ~src ~dst:br.tdst in
    let f_exit = Loops.is_loop_exit_edge st.loops ~src ~dst:br.fdst in
    if t_exit && not f_exit then Some (1.0 -. leh_prob)
    else if f_exit && not t_exit then Some leh_prob
    else None
  end

(** Loop header: predict a successor that is a loop header or pre-header and
    does not post-dominate the branch. *)
let loop_header (st : Static.t) ~src (br : Ir.branch) =
  let header_or_preheader dst =
    Loops.is_loop_header st.loops dst
    ||
    match (Ir.block st.fn dst).Ir.term with
    | Ir.Jump d -> Loops.is_loop_header st.loops d
    | Ir.Br _ | Ir.Ret _ -> false
  in
  let qualifies dst = header_or_preheader dst && not (postdominates st dst src) in
  let t = qualifies br.tdst and f = qualifies br.fdst in
  if t && not f then Some lhh_prob else if f && not t then Some (1.0 -. lhh_prob) else None

(** Call: predict a successor containing a call that does not post-dominate
    the branch is not taken. *)
let call st ~src (br : Ir.branch) =
  let qualifies dst = block_has_call st dst && not (postdominates st dst src) in
  let t = qualifies br.tdst and f = qualifies br.fdst in
  if t && not f then Some (1.0 -. ch_prob)
  else if f && not t then Some ch_prob
  else None

(** Opcode: comparisons [a < 0], [a <= 0] and equality tests are predicted
    to fail. *)
let opcode _st ~src:_ (br : Ir.branch) =
  let is_neg_const = function Ir.Cint n -> n <= 0 | Ir.Cfloat f -> f <= 0.0 | Ir.Ovar _ -> false in
  match br.rel with
  | Ast.Eq -> Some (1.0 -. oh_prob)
  | Ast.Ne -> Some oh_prob
  | Ast.Lt when is_neg_const br.bb -> Some (1.0 -. oh_prob)
  | Ast.Le when is_neg_const br.bb -> Some (1.0 -. oh_prob)
  | Ast.Gt when is_neg_const br.bb -> Some oh_prob
  | Ast.Ge when is_neg_const br.bb -> Some oh_prob
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge -> None

(** Guard: a register compared by the branch is used in a successor (before
    being redefined there) that does not post-dominate the branch — predict
    that successor taken. In SSA any use of the same variable qualifies. *)
let guard (st : Static.t) ~src (br : Ir.branch) =
  let branch_vars =
    List.filter_map Ir.operand_var [ br.ba; br.bb ] |> List.map (fun v -> v.Vrp_ir.Var.id)
  in
  if branch_vars = [] then None
  else begin
    let uses_var dst =
      Array.exists
        (fun instr ->
          match instr with
          | Ir.Def (_, Ir.Assertion _) -> false  (* assertions are bookkeeping *)
          | instr ->
            List.exists
              (fun (v : Vrp_ir.Var.t) -> List.mem v.Vrp_ir.Var.id branch_vars)
              (Ir.instr_uses instr))
        st.instrs.(dst)
    in
    let qualifies dst = uses_var dst && not (postdominates st dst src) in
    let t = qualifies br.tdst and f = qualifies br.fdst in
    if t && not f then Some gh_prob else if f && not t then Some (1.0 -. gh_prob) else None
  end

(** Store: predict a successor containing a store that does not post-dominate
    the branch is not taken. *)
let store st ~src (br : Ir.branch) =
  let qualifies dst = block_has_store st dst && not (postdominates st dst src) in
  let t = qualifies br.tdst and f = qualifies br.fdst in
  if t && not f then Some (1.0 -. sh_prob)
  else if f && not t then Some sh_prob
  else None

(** Return: predict a successor containing a return is not taken. *)
let return st ~src:_ (br : Ir.branch) =
  let t = block_returns st br.tdst and f = block_returns st br.fdst in
  if t && not f then Some (1.0 -. rh_prob)
  else if f && not t then Some rh_prob
  else None

let all_heuristics = [ loop_branch; loop_exit; loop_header; call; opcode; guard; store; return ]

(** Ball–Larus estimate for the branch terminating [src]: Dempster–Shafer
    combination of every applicable heuristic. *)
let ball_larus st ~src (br : Ir.branch) : float =
  let estimates = List.filter_map (fun h -> h st ~src br) all_heuristics in
  Combine.combine estimates

(** The 90/50 rule: structurally-backward branches are taken 90% of the
    time, everything else 50/50. *)
let ninety_fifty (st : Static.t) ~src (br : Ir.branch) : float =
  let backward dst =
    Static.is_back_edge st ~src ~dst
    || (Loops.in_loop st.loops src
       && (not (Loops.is_loop_exit_edge st.loops ~src ~dst))
       && Loops.is_loop_exit_edge st.loops ~src
            ~dst:(if dst = br.tdst then br.fdst else br.tdst))
  in
  if backward br.tdst then 0.9 else if backward br.fdst then 0.1 else 0.5
