(** Static per-branch feature vectors for the learned fallback predictor.

    The schema is the Ball–Larus signal set — comparison kind, operand
    classes, loop position, guard shape, successor postdominance and
    call/store/return content, array context — extended with two
    VRP-derived hints ("range known on one side"), which tell the model
    whether the engine had usable information about each operand even
    though the comparison itself was unpredictable (⊥).

    Every feature is a small non-negative integer so the decision tree can
    use integer thresholds and the corpus digest is platform-independent.
    [version] pins the schema: a model trained against one schema refuses
    to load against another. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var
module Loops = Vrp_ir.Loops
module Static = Vrp_ir.Static
module Heuristics = Vrp_predict.Heuristics
module Engine = Vrp_core.Engine
module Value = Vrp_ranges.Value

let version = 1

let names =
  [|
    "relop";
    "ba_class";
    "bb_class";
    "loop_depth";
    "src_is_header";
    "t_back_edge";
    "f_back_edge";
    "t_loop_exit";
    "f_loop_exit";
    "t_is_header";
    "f_is_header";
    "t_postdominates";
    "f_postdominates";
    "t_has_call";
    "f_has_call";
    "t_has_store";
    "f_has_store";
    "t_returns";
    "f_returns";
    "t_uses_operand";
    "f_uses_operand";
    "src_has_array_access";
    "cmp_loaded_from_array";
    "ba_range_known";
    "bb_range_known";
  |]

let dim = Array.length names

let relop_code = function
  | Ast.Eq -> 0
  | Ast.Ne -> 1
  | Ast.Lt -> 2
  | Ast.Le -> 3
  | Ast.Gt -> 4
  | Ast.Ge -> 5

(* Operand class: variables and the constant shapes the opcode heuristic
   keys on (zero / positive / negative / float). *)
let operand_class = function
  | Ir.Ovar _ -> 0
  | Ir.Cint 0 -> 1
  | Ir.Cint n when n > 0 -> 2
  | Ir.Cint _ -> 3
  | Ir.Cfloat _ -> 4

let bool_ b = if b then 1 else 0

let block_has_array_access (st : Static.t) bid =
  Array.exists
    (fun instr ->
      match instr with
      | Ir.Store _ -> true
      | Ir.Def (_, Ir.Load _) -> true
      | Ir.Def _ -> false)
    st.instrs.(bid)

(* Is some compared operand the result of an array load? *)
let compares_loaded_value st (br : Ir.branch) =
  List.exists
    (fun op ->
      match Option.bind (Ir.operand_var op) (Static.def st) with
      | Some (Ir.Load _) -> true
      | Some _ | None -> false)
    [ br.Ir.ba; br.Ir.bb ]

(* A successor "uses" the branch's operands when some non-assertion
   instruction reads one of the compared SSA variables — the Ball–Larus
   guard-heuristic shape. *)
let successor_uses_operand (st : Static.t) (br : Ir.branch) dst =
  let wanted =
    List.filter_map Ir.operand_var [ br.Ir.ba; br.Ir.bb ]
    |> List.map (fun (v : Var.t) -> v.Var.id)
  in
  wanted <> []
  && Array.exists
       (fun instr ->
         match instr with
         | Ir.Def (_, Ir.Assertion _) -> false
         | instr ->
           List.exists (fun (v : Var.t) -> List.mem v.Var.id wanted) (Ir.instr_uses instr))
       st.instrs.(dst)

(* The engine knew a usable (non-⊤, non-⊥) range for this operand, even
   though the comparison as a whole was unpredictable. *)
let range_known (res : Engine.t option) = function
  | Ir.Cint _ | Ir.Cfloat _ -> true
  | Ir.Ovar v -> (
    match res with
    | None -> false
    | Some res -> (
      match Engine.value res v with
      | Value.Top | Value.Bottom -> false
      | Value.Ranges _ -> true))

let extract ~(static : Static.t) ~(res : Engine.t option) ~src (br : Ir.branch) :
    int array =
  let loops = static.loops in
  let depth = min 7 (Loops.loop_depth loops src) in
  let back dst = Static.is_back_edge static ~src ~dst in
  let exits dst = Loops.is_loop_exit_edge loops ~src ~dst in
  let header dst = Loops.is_loop_header loops dst in
  let pd dst = Heuristics.postdominates static dst src in
  let call dst = Heuristics.block_has_call static dst in
  let store dst = Heuristics.block_has_store static dst in
  let returns dst = Heuristics.block_returns static dst in
  let uses dst = successor_uses_operand static br dst in
  [|
    relop_code br.Ir.rel;
    operand_class br.Ir.ba;
    operand_class br.Ir.bb;
    depth;
    bool_ (header src);
    bool_ (back br.Ir.tdst);
    bool_ (back br.Ir.fdst);
    bool_ (exits br.Ir.tdst);
    bool_ (exits br.Ir.fdst);
    bool_ (header br.Ir.tdst);
    bool_ (header br.Ir.fdst);
    bool_ (pd br.Ir.tdst);
    bool_ (pd br.Ir.fdst);
    bool_ (call br.Ir.tdst);
    bool_ (call br.Ir.fdst);
    bool_ (store br.Ir.tdst);
    bool_ (store br.Ir.fdst);
    bool_ (returns br.Ir.tdst);
    bool_ (returns br.Ir.fdst);
    bool_ (uses br.Ir.tdst);
    bool_ (uses br.Ir.fdst);
    bool_ (block_has_array_access static src);
    bool_ (compares_loaded_value static br);
    bool_ (range_known res br.Ir.ba);
    bool_ (range_known res br.Ir.bb);
  |]
