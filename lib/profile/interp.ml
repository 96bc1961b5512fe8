(** Reference interpreter and execution profiler.

    Executes the canonical SSA CFG directly (φ-functions are resolved with
    the incoming edge, assertions are checked copies), so the branch
    behaviour it observes is attributed to exactly the same branch
    identities — (function, block) — that the static predictors annotate.
    This replaces the paper's instrumented SPEC binaries: a "profile run"
    is an interpretation with the train input, the "observed behaviour" an
    interpretation with the reference input (§5: "Different inputs were used
    to collect the execution profiles and the actual observed behavior").

    Traps (division by zero, out-of-bounds access, step-budget exhaustion)
    raise {!Trap}; assertions inserted by the SSA pass are dynamically
    verified and raise [Assert_failure] on violation, which would indicate a
    compiler bug. *)

module Ast = Vrp_lang.Ast
module Ir = Vrp_ir.Ir
module Var = Vrp_ir.Var

type value = Vint of int | Vfloat of float

exception Trap of string

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

type branch_stats = { mutable taken : int; mutable total : int }

(** Execution profile: per-branch outcome counts plus per-edge traversal
    counts (for execution-weighted evaluation). *)
type profile = {
  branches : (string * int, branch_stats) Hashtbl.t;
  edges : (string * int * int, int) Hashtbl.t;
  mutable steps : int;
}

let fresh_profile () = { branches = Hashtbl.create 64; edges = Hashtbl.create 64; steps = 0 }

let branch_stats profile key = Hashtbl.find_opt profile.branches key

(** Observed probability that the branch was taken, if it executed. *)
let observed_prob profile key =
  match Hashtbl.find_opt profile.branches key with
  | Some { taken; total } when total > 0 -> Some (float_of_int taken /. float_of_int total)
  | Some _ | None -> None

type event =
  | Ev_enter of { fn : string; args : value list }
  | Ev_def of { fn : string; var : Var.t; value : value }
  | Ev_return of { fn : string; value : value }
  | Ev_branch of { fn : string; block : int; taken : bool }
  | Ev_access of {
      fn : string;
      block : int;
      instr : int;
      array : string;
      index : int;
      size : int;
      is_store : bool;
    }

type state = {
  program : Ir.program;
  globals : (string, value array) Hashtbl.t;
  profile : profile;
  max_steps : int;
  print_sink : Buffer.t option;
  observe : (event -> unit) option;
}

let emit st ev = match st.observe with None -> () | Some f -> f ev

let zero_of_ty = function Ast.Tfloat -> Vfloat 0.0 | Ast.Tint | Ast.Tvoid -> Vint 0

let make_array (info : Ir.array_info) = Array.make info.size (zero_of_ty info.elem_ty)

let to_float = function Vint n -> float_of_int n | Vfloat f -> f

let binop_value (op : Ast.binop) (a : value) (b : value) : value =
  match (op, a, b) with
  | Ast.Add, Vint x, Vint y -> Vint (x + y)
  | Ast.Sub, Vint x, Vint y -> Vint (x - y)
  | Ast.Mul, Vint x, Vint y -> Vint (x * y)
  | Ast.Div, Vint x, Vint y -> if y = 0 then trap "division by zero" else Vint (x / y)
  | Ast.Mod, Vint x, Vint y -> if y = 0 then trap "modulo by zero" else Vint (x mod y)
  | Ast.Band, Vint x, Vint y -> Vint (x land y)
  | Ast.Bor, Vint x, Vint y -> Vint (x lor y)
  | Ast.Bxor, Vint x, Vint y -> Vint (x lxor y)
  | Ast.Shl, Vint x, Vint y ->
    if y < 0 || y > 62 then trap "shift amount out of range" else Vint (x lsl y)
  | Ast.Shr, Vint x, Vint y ->
    if y < 0 || y > 62 then trap "shift amount out of range" else Vint (x asr y)
  | Ast.Add, _, _ -> Vfloat (to_float a +. to_float b)
  | Ast.Sub, _, _ -> Vfloat (to_float a -. to_float b)
  | Ast.Mul, _, _ -> Vfloat (to_float a *. to_float b)
  | Ast.Div, _, _ ->
    let d = to_float b in
    if d = 0.0 then trap "float division by zero" else Vfloat (to_float a /. d)
  | (Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr), _, _ ->
    trap "integer operator applied to float"

let rel_holds (rel : Ast.relop) (a : value) (b : value) : bool =
  let cmp =
    match (a, b) with
    | Vint x, Vint y -> Int.compare x y
    | _, _ -> Float.compare (to_float a) (to_float b)
  in
  match rel with
  | Ast.Eq -> cmp = 0
  | Ast.Ne -> cmp <> 0
  | Ast.Lt -> cmp < 0
  | Ast.Le -> cmp <= 0
  | Ast.Gt -> cmp > 0
  | Ast.Ge -> cmp >= 0

(* Values are coerced to the static type at every typed write point
   (definition, parameter, store, return), matching C's typed storage: an
   [int] flowing into a [float] variable becomes a float before any further
   arithmetic, so [float f = 3; f / 2] divides 3.0 by 2. *)
let coerce (ty : Ast.ty) (v : value) : value =
  match (ty, v) with Ast.Tfloat, Vint n -> Vfloat (float_of_int n) | _ -> v

let rec call_fn (st : state) (fn : Ir.fn) (args : value list) : value =
  let vals = Array.make fn.nvars (Vint 0) in
  (try
     List.iter2
       (fun (p : Var.t) v -> vals.(p.Var.id) <- coerce p.Var.ty v)
       fn.params args
   with Invalid_argument _ -> trap "arity mismatch calling %s" fn.fname);
  if st.observe <> None then begin
    emit st
      (Ev_enter
         { fn = fn.fname; args = List.map (fun (p : Var.t) -> vals.(p.Var.id)) fn.params });
    List.iter
      (fun (p : Var.t) -> emit st (Ev_def { fn = fn.fname; var = p; value = vals.(p.Var.id) }))
      fn.params
  end;
  let local_arrays = Hashtbl.create 4 in
  List.iter
    (fun (info : Ir.array_info) -> Hashtbl.replace local_arrays info.aname (make_array info))
    fn.local_arrays;
  let find_array name =
    match Hashtbl.find_opt local_arrays name with
    | Some a -> a
    | None -> (
      match Hashtbl.find_opt st.globals name with
      | Some a -> a
      | None -> trap "unknown array %s" name)
  in
  let operand = function
    | Ir.Cint n -> Vint n
    | Ir.Cfloat f -> Vfloat f
    | Ir.Ovar v -> vals.(v.Var.id)
  in
  let array_ref name idx =
    let arr = find_array name in
    match idx with
    | Vint i ->
      if i < 0 || i >= Array.length arr then
        trap "array index %d out of bounds for %s[%d] in %s" i name (Array.length arr)
          fn.fname
      else (arr, i)
    | Vfloat _ -> trap "float array index"
  in
  let step () =
    st.profile.steps <- st.profile.steps + 1;
    if st.profile.steps > st.max_steps then trap "step budget exhausted (%d)" st.max_steps
  in
  (* Report an access to the hook before [array_ref] gets a chance to trap,
     so an observer sees the out-of-bounds index that killed the run. *)
  let observe_access ~site name iv is_store =
    match (st.observe, iv) with
    | Some _, Vint index -> (
      let size =
        match Hashtbl.find_opt local_arrays name with
        | Some a -> Some (Array.length a)
        | None -> Option.map Array.length (Hashtbl.find_opt st.globals name)
      in
      match size with
      | Some size ->
        let block, instr = site in
        emit st
          (Ev_access { fn = fn.fname; block; instr; array = name; index; size; is_store })
      | None -> ())
    | _ -> ()
  in
  let eval_rhs ~pred ~site = function
    | Ir.Op a -> operand a
    | Ir.Binop (op, a, b) -> binop_value op (operand a) (operand b)
    | Ir.Unop (Ir.Neg, a) -> (
      match operand a with Vint n -> Vint (-n) | Vfloat f -> Vfloat (-.f))
    | Ir.Unop (Ir.Bnot, a) -> (
      match operand a with Vint n -> Vint (lnot n) | Vfloat _ -> trap "'~' on float")
    | Ir.Cmp (rel, a, b) -> Vint (if rel_holds rel (operand a) (operand b) then 1 else 0)
    | Ir.Load (name, idx) ->
      let iv = operand idx in
      observe_access ~site name iv false;
      let arr, i = array_ref name iv in
      arr.(i)
    | Ir.Call (name, args) -> do_call st fn.fname name (List.map operand args)
    | Ir.Phi args -> (
      match List.assoc_opt pred args with
      | Some a -> operand a
      | None -> trap "phi in %s missing argument for predecessor B%d" fn.fname pred)
    | Ir.Assertion { parent; arel; abound } ->
      let v = vals.(parent.Var.id) in
      assert (rel_holds arel v (operand abound));
      v
  in
  (* Main execution loop over basic blocks. *)
  let rec exec_block bid ~pred : value =
    let blk = Ir.block fn bid in
    (* φ-functions are conceptually parallel: evaluate all arguments against
       the predecessor state before writing any of them. *)
    let rec run_phis = function
      | Ir.Def (v, Ir.Phi args) :: rest ->
        let rest_writes = run_phis rest in
        (v, eval_rhs ~pred ~site:(bid, -1) (Ir.Phi args)) :: rest_writes
      | _ -> []
    in
    let phi_writes = run_phis blk.instrs in
    List.iter
      (fun ((v : Var.t), value) ->
        step ();
        let value = coerce v.Var.ty value in
        vals.(v.Var.id) <- value;
        if st.observe <> None then emit st (Ev_def { fn = fn.fname; var = v; value }))
      phi_writes;
    let nphis =
      let rec count n = function
        | Ir.Def (_, Ir.Phi _) :: rest -> count (n + 1) rest
        | _ -> n
      in
      count 0 blk.instrs
    in
    List.iteri
      (fun i instr ->
        if i >= nphis then begin
          step ();
          match instr with
          | Ir.Def (v, rhs) ->
            let value = coerce v.Var.ty (eval_rhs ~pred ~site:(bid, i) rhs) in
            vals.(v.Var.id) <- value;
            if st.observe <> None then emit st (Ev_def { fn = fn.fname; var = v; value })
          | Ir.Store (name, idx, v) ->
            let iv = operand idx in
            observe_access ~site:(bid, i) name iv true;
            let arr, slot = array_ref name iv in
            let elem_ty =
              match Ir.find_array st.program fn name with
              | Some info -> info.elem_ty
              | None -> Ast.Tint
            in
            arr.(slot) <- coerce elem_ty (operand v)
        end)
      blk.instrs;
    step ();
    let record_edge dst =
      let key = (fn.fname, bid, dst) in
      Hashtbl.replace st.profile.edges key
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.profile.edges key))
    in
    match blk.term with
    | Ir.Jump dst ->
      record_edge dst;
      exec_block dst ~pred:bid
    | Ir.Br { rel; ba; bb; tdst; fdst } ->
      let taken = rel_holds rel (operand ba) (operand bb) in
      if st.observe <> None then emit st (Ev_branch { fn = fn.fname; block = bid; taken });
      let key = (fn.fname, bid) in
      let stats =
        match Hashtbl.find_opt st.profile.branches key with
        | Some s -> s
        | None ->
          let s = { taken = 0; total = 0 } in
          Hashtbl.replace st.profile.branches key s;
          s
      in
      stats.total <- stats.total + 1;
      if taken then stats.taken <- stats.taken + 1;
      let dst = if taken then tdst else fdst in
      record_edge dst;
      exec_block dst ~pred:bid
    | Ir.Ret None -> Vint 0
    | Ir.Ret (Some op) -> coerce fn.ret_ty (operand op)
  in
  let ret = exec_block Ir.entry_bid ~pred:(-1) in
  if st.observe <> None then emit st (Ev_return { fn = fn.fname; value = ret });
  ret

and do_call st caller name args : value =
  match name with
  | "print_int" -> (
    match (args, st.print_sink) with
    | [ Vint n ], Some buf ->
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf '\n';
      Vint 0
    | [ Vint _ ], None -> Vint 0
    | _ -> trap "print_int expects one int")
  | "print_float" -> (
    match (args, st.print_sink) with
    | [ v ], Some buf ->
      Buffer.add_string buf (Printf.sprintf "%g" (to_float v));
      Buffer.add_char buf '\n';
      Vfloat 0.0
    | [ _ ], None -> Vfloat 0.0
    | _ -> trap "print_float expects one argument")
  | name -> (
    match Ir.find_fn st.program name with
    | Some fn -> call_fn st fn args
    | None -> trap "call to unknown function %s from %s" name caller)

(** Result of a run: the returned value, the profile, and captured output. *)
type result = { ret : value; profile : profile; output : string }

(** [run program ~args] interprets [program]'s [main] on integer arguments.
    [max_steps] bounds total executed instructions (default 50M). *)
let run ?(max_steps = 50_000_000) ?(capture_output = false) ?observe
    (program : Ir.program) ~(args : int list) : result =
  let main =
    match Ir.find_fn program "main" with
    | Some fn -> fn
    | None -> trap "program has no main function"
  in
  let globals = Hashtbl.create 8 in
  List.iter
    (fun (info : Ir.array_info) -> Hashtbl.replace globals info.aname (make_array info))
    program.global_arrays;
  let st =
    {
      program;
      globals;
      profile = fresh_profile ();
      max_steps;
      print_sink = (if capture_output then Some (Buffer.create 256) else None);
      observe;
    }
  in
  let ret = call_fn st main (List.map (fun n -> Vint n) args) in
  {
    ret;
    profile = st.profile;
    output = (match st.print_sink with Some b -> Buffer.contents b | None -> "");
  }
