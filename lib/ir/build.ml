(** Lowering from the MiniC AST to the CFG IR.

    Conventions established here (the rest of the pipeline relies on them):

    - every local scalar is zero-initialised at function entry, so SSA
      renaming never meets an undefined use and the interpreter, SCCP and VRP
      agree on the semantics of paths that skip a textual initialisation;
    - global scalars are lowered as size-1 arrays accessed through
      [Load]/[Store]; as in the paper, loads from memory are opaque to the
      range analysis;
    - short-circuit [&&]/[||] become explicit control flow, so they
      contribute conditional branches exactly like C compilers' IRs;
    - conditions are normalised to a comparison terminator
      [Br (a rel b)]; a bare numeric condition becomes [a != 0]. *)

open Vrp_lang.Ast

type blk = { mutable rinstrs : Ir.instr list; mutable bterm : Ir.term option }

type fsig = { fret : ty }

(* What lowering one function reads of its program: every callable
   function's return type (builtins included) and the global tables. *)
type env = {
  env_fsigs : (string, fsig) Hashtbl.t;
  env_scalars : (string, ty) Hashtbl.t;
  env_arrays : (string, Ir.array_info) Hashtbl.t;
  globals : Ir.array_info list;  (* declaration order; scalars as size-1 arrays *)
}

type builder = {
  blocks : (int, blk) Hashtbl.t;
  mutable nblocks : int;
  mutable cur : int;
  fn_rec : Ir.fn;  (** under construction: used for fresh variables *)
  mutable scopes : (string, Var.t) Hashtbl.t list;
      (** lexical scopes for scalars, innermost first; each declaration gets
          a fresh IR variable so shadowing just works *)
  local_arrays : (string, Ir.array_info) Hashtbl.t;
  global_scalars : (string, ty) Hashtbl.t;
  global_arrays : (string, Ir.array_info) Hashtbl.t;
  fsigs : (string, fsig) Hashtbl.t;
  mutable break_targets : int list;
  mutable continue_targets : int list;
}

exception Lower_error of string

let new_block bld =
  let id = bld.nblocks in
  bld.nblocks <- bld.nblocks + 1;
  Hashtbl.add bld.blocks id { rinstrs = []; bterm = None };
  id

let cur_blk bld = Hashtbl.find bld.blocks bld.cur

let emit bld instr =
  let blk = cur_blk bld in
  (* Code after a return/break in the same source block is unreachable; we
     park it in a fresh block so it gets swept by the cleanup pass. *)
  (match blk.bterm with
  | None -> ()
  | Some _ -> bld.cur <- new_block bld);
  let blk = cur_blk bld in
  blk.rinstrs <- instr :: blk.rinstrs

let seal bld term =
  let blk = cur_blk bld in
  match blk.bterm with
  | None -> blk.bterm <- Some term
  | Some _ ->
    (* already terminated: the rest of this source block is dead code *)
    bld.cur <- new_block bld;
    (cur_blk bld).bterm <- Some term

(* Temporaries get distinct base names so SSA dumps stay unambiguous. *)
let fresh_temp bld ty =
  let base = Printf.sprintf "%%t%d" bld.fn_rec.Ir.nvars in
  Ir.fresh_var bld.fn_rec ~base ~version:(-1) ~ty

let lookup_scalar bld name =
  let rec walk = function
    | [] -> None
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with Some v -> Some v | None -> walk rest)
  in
  walk bld.scopes

let declare_scalar bld name ty : Var.t =
  let v = Ir.fresh_var bld.fn_rec ~base:name ~version:(-1) ~ty in
  (match bld.scopes with
  | scope :: _ -> Hashtbl.replace scope name v
  | [] -> assert false);
  v

let in_new_scope bld f =
  bld.scopes <- Hashtbl.create 8 :: bld.scopes;
  Fun.protect ~finally:(fun () -> bld.scopes <- List.tl bld.scopes) f

let lookup_array bld name =
  match Hashtbl.find_opt bld.local_arrays name with
  | Some info -> Some info
  | None -> Hashtbl.find_opt bld.global_arrays name

(* Static expression type, for choosing temp variable types. *)
let rec ty_of bld = function
  | Int _ -> Tint
  | Float _ -> Tfloat
  | Var name -> (
    match lookup_scalar bld name with
    | Some v -> v.Var.ty
    | None -> (
      match Hashtbl.find_opt bld.global_scalars name with
      | Some ty -> ty
      | None -> raise (Lower_error ("unknown variable " ^ name))))
  | Index (name, _) -> (
    match lookup_array bld name with
    | Some info -> info.elem_ty
    | None -> raise (Lower_error ("unknown array " ^ name)))
  | Binop ((Add | Sub | Mul | Div), a, b) -> (
    match (ty_of bld a, ty_of bld b) with
    | Tint, Tint -> Tint
    | _ -> Tfloat)
  | Binop ((Mod | Band | Bor | Bxor | Shl | Shr), _, _) -> Tint
  | Rel _ | And _ | Or _ -> Tint
  | Unop (Neg, a) -> ty_of bld a
  | Unop ((Lnot | Bnot), _) -> Tint
  | Call (name, _) -> (
    match Hashtbl.find_opt bld.fsigs name with
    | Some { fret } -> fret
    | None -> raise (Lower_error ("unknown function " ^ name)))

(** Lower [e] to a right-hand side, emitting instructions for
    sub-expressions. Top-level operations are returned directly so that
    source assignments become a single [Def] rather than a temp + copy. *)
let rec lower_rhs bld (e : expr) : Ir.rhs =
  match e with
  | Int n -> Ir.Op (Ir.Cint n)
  | Float f -> Ir.Op (Ir.Cfloat f)
  | Var name -> (
    match lookup_scalar bld name with
    | Some v -> Ir.Op (Ir.Ovar v)
    | None ->
      if Hashtbl.mem bld.global_scalars name then Ir.Load (name, Ir.Cint 0)
      else raise (Lower_error ("unknown variable " ^ name)))
  | Index (name, idx) -> Ir.Load (name, lower_operand bld idx)
  | Binop (op, a, b) ->
    let oa = lower_operand bld a in
    let ob = lower_operand bld b in
    Ir.Binop (op, oa, ob)
  | Rel (op, a, b) ->
    let oa = lower_operand bld a in
    let ob = lower_operand bld b in
    Ir.Cmp (op, oa, ob)
  | Unop (Neg, a) -> Ir.Unop (Ir.Neg, lower_operand bld a)
  | Unop (Bnot, a) -> Ir.Unop (Ir.Bnot, lower_operand bld a)
  | Unop (Lnot, a) -> Ir.Cmp (Eq, lower_operand bld a, Ir.Cint 0)
  | Call (name, args) ->
    let ops = List.map (lower_operand bld) args in
    Ir.Call (name, ops)
  | And _ | Or _ ->
    (* Materialise the 0/1 result through control flow. *)
    let t = fresh_temp bld Tint in
    let join = new_block bld in
    let yes = new_block bld in
    let no = new_block bld in
    lower_cond bld e yes no;
    bld.cur <- yes;
    emit bld (Ir.Def (t, Ir.Op (Ir.Cint 1)));
    seal bld (Ir.Jump join);
    bld.cur <- no;
    emit bld (Ir.Def (t, Ir.Op (Ir.Cint 0)));
    seal bld (Ir.Jump join);
    bld.cur <- join;
    Ir.Op (Ir.Ovar t)

and lower_operand bld (e : expr) : Ir.operand =
  match lower_rhs bld e with
  | Ir.Op op -> op
  | rhs ->
    let t = fresh_temp bld (ty_of bld e) in
    emit bld (Ir.Def (t, rhs));
    Ir.Ovar t

(** Lower [e] as a condition transferring control to [tdst]/[fdst]. *)
and lower_cond bld (e : expr) (tdst : int) (fdst : int) : unit =
  match e with
  | And (a, b) ->
    let mid = new_block bld in
    lower_cond bld a mid fdst;
    bld.cur <- mid;
    lower_cond bld b tdst fdst
  | Or (a, b) ->
    let mid = new_block bld in
    lower_cond bld a tdst mid;
    bld.cur <- mid;
    lower_cond bld b tdst fdst
  | Unop (Lnot, a) -> lower_cond bld a fdst tdst
  | Rel (op, a, b) ->
    let oa = lower_operand bld a in
    let ob = lower_operand bld b in
    if tdst = fdst then seal bld (Ir.Jump tdst)
    else seal bld (Ir.Br { rel = op; ba = oa; bb = ob; tdst; fdst })
  | Int n -> seal bld (Ir.Jump (if n <> 0 then tdst else fdst))
  | e ->
    let op = lower_operand bld e in
    if tdst = fdst then seal bld (Ir.Jump tdst)
    else seal bld (Ir.Br { rel = Ne; ba = op; bb = Ir.Cint 0; tdst; fdst })

let lower_assign bld lv (rhs : Ir.rhs) =
  match lv with
  | Lvar name -> (
    match lookup_scalar bld name with
    | Some v -> emit bld (Ir.Def (v, rhs))
    | None ->
      if Hashtbl.mem bld.global_scalars name then begin
        let op =
          match rhs with
          | Ir.Op op -> op
          | rhs ->
            let t = fresh_temp bld (Hashtbl.find bld.global_scalars name) in
            emit bld (Ir.Def (t, rhs));
            Ir.Ovar t
        in
        emit bld (Ir.Store (name, Ir.Cint 0, op))
      end
      else raise (Lower_error ("unknown variable " ^ name)))
  | Lindex (name, idx) ->
    let oidx = lower_operand bld idx in
    let op =
      match rhs with
      | Ir.Op op -> op
      | rhs ->
        let info =
          match lookup_array bld name with
          | Some info -> info
          | None -> raise (Lower_error ("unknown array " ^ name))
        in
        let t = fresh_temp bld info.elem_ty in
        emit bld (Ir.Def (t, rhs));
        Ir.Ovar t
    in
    emit bld (Ir.Store (name, oidx, op))

let rec lower_stmt bld (s : stmt) : unit =
  match s.sdesc with
  | Sdecl (ty, name, Iscalar init) ->
    let v = declare_scalar bld name ty in
    let rhs =
      match init with
      | Some e -> lower_rhs bld e
      | None ->
        (* MiniC defines uninitialised scalars as zero. *)
        Ir.Op (if ty = Tfloat then Ir.Cfloat 0.0 else Ir.Cint 0)
    in
    emit bld (Ir.Def (v, rhs))
  | Sdecl (_, _, Iarray _) -> ()  (* arrays are hoisted during the pre-scan *)
  | Sassign (lv, e) -> lower_assign bld lv (lower_rhs bld e)
  | Sif (cond, then_blk, else_blk) ->
    let bthen = new_block bld in
    let join = new_block bld in
    let belse = match else_blk with Some _ -> new_block bld | None -> join in
    lower_cond bld cond bthen belse;
    bld.cur <- bthen;
    in_new_scope bld (fun () -> List.iter (lower_stmt bld) then_blk);
    seal bld (Ir.Jump join);
    (match else_blk with
    | Some blk ->
      bld.cur <- belse;
      in_new_scope bld (fun () -> List.iter (lower_stmt bld) blk);
      seal bld (Ir.Jump join)
    | None -> ());
    bld.cur <- join
  | Swhile (cond, body) ->
    let header = new_block bld in
    let bbody = new_block bld in
    let exit = new_block bld in
    seal bld (Ir.Jump header);
    bld.cur <- header;
    lower_cond bld cond bbody exit;
    bld.cur <- bbody;
    bld.break_targets <- exit :: bld.break_targets;
    bld.continue_targets <- header :: bld.continue_targets;
    in_new_scope bld (fun () -> List.iter (lower_stmt bld) body);
    bld.break_targets <- List.tl bld.break_targets;
    bld.continue_targets <- List.tl bld.continue_targets;
    seal bld (Ir.Jump header);
    bld.cur <- exit
  | Sfor (init, cond, step, body) ->
    in_new_scope bld (fun () ->
        Option.iter (lower_stmt bld) init;
        let header = new_block bld in
        let bbody = new_block bld in
        let bstep = new_block bld in
        let exit = new_block bld in
        seal bld (Ir.Jump header);
        bld.cur <- header;
        (match cond with
        | Some c -> lower_cond bld c bbody exit
        | None -> seal bld (Ir.Jump bbody));
        bld.cur <- bbody;
        bld.break_targets <- exit :: bld.break_targets;
        bld.continue_targets <- bstep :: bld.continue_targets;
        in_new_scope bld (fun () -> List.iter (lower_stmt bld) body);
        bld.break_targets <- List.tl bld.break_targets;
        bld.continue_targets <- List.tl bld.continue_targets;
        seal bld (Ir.Jump bstep);
        bld.cur <- bstep;
        Option.iter (lower_stmt bld) step;
        seal bld (Ir.Jump header);
        bld.cur <- exit)
  | Sreturn None -> seal bld (Ir.Ret None)
  | Sreturn (Some e) ->
    let op = lower_operand bld e in
    seal bld (Ir.Ret (Some op))
  | Sbreak -> (
    match bld.break_targets with
    | target :: _ -> seal bld (Ir.Jump target)
    | [] -> raise (Lower_error "break outside loop"))
  | Scontinue -> (
    match bld.continue_targets with
    | target :: _ -> seal bld (Ir.Jump target)
    | [] -> raise (Lower_error "continue outside loop"))
  | Sexpr e -> (
    match lower_rhs bld e with
    | Ir.Op _ -> ()  (* pure, no effect *)
    | Ir.Call (name, ops) ->
      let ret = match Hashtbl.find_opt bld.fsigs name with Some s -> s.fret | None -> Tint in
      let t = fresh_temp bld (if ret = Tvoid then Tint else ret) in
      emit bld (Ir.Def (t, Ir.Call (name, ops)))
    | rhs ->
      let t = fresh_temp bld Tint in
      emit bld (Ir.Def (t, rhs)))

(* Collect every array declaration in a function body: arrays are hoisted to
   function scope in the IR (storage, not a binding). *)
let rec collect_arrays stmts (arrays : (string * ty * int) list ref) =
  List.iter
    (fun s ->
      match s.sdesc with
      | Sdecl (_, _, Iscalar _) -> ()
      | Sdecl (ty, name, Iarray size) ->
        if not (List.exists (fun (n, _, _) -> String.equal n name) !arrays) then
          arrays := (name, ty, size) :: !arrays
      | Sif (_, a, b) ->
        collect_arrays a arrays;
        Option.iter (fun blk -> collect_arrays blk arrays) b
      | Swhile (_, body) -> collect_arrays body arrays
      | Sfor (init, _, step, body) ->
        Option.iter (fun st -> collect_arrays [ st ] arrays) init;
        Option.iter (fun st -> collect_arrays [ st ] arrays) step;
        collect_arrays body arrays
      | Sassign _ | Sreturn _ | Sbreak | Scontinue | Sexpr _ -> ())
    stmts

let lower_fn env (f : func) : Ir.fn =
  let array_decls = ref [] in
  collect_arrays f.body array_decls;
  let fn_rec =
    {
      Ir.fname = f.fname;
      ret_ty = f.fty;
      params = [];
      blocks = [||];
      nvars = 0;
      local_arrays =
        List.rev_map
          (fun (aname, elem_ty, size) -> { Ir.aname; elem_ty; size })
          !array_decls;
    }
  in
  let bld =
    {
      blocks = Hashtbl.create 32;
      nblocks = 0;
      cur = 0;
      fn_rec;
      scopes = [ Hashtbl.create 32 ];
      local_arrays = Hashtbl.create 8;
      global_scalars = env.env_scalars;
      global_arrays = env.env_arrays;
      fsigs = env.env_fsigs;
      break_targets = [];
      continue_targets = [];
    }
  in
  List.iter
    (fun a -> Hashtbl.add bld.local_arrays a.Ir.aname a)
    fn_rec.local_arrays;
  let entry = new_block bld in
  assert (entry = Ir.entry_bid);
  bld.cur <- entry;
  (* Parameters. *)
  let params =
    List.map
      (fun p -> Ir.fresh_var fn_rec ~base:p.pname ~version:(-1) ~ty:p.pty)
      f.params
  in
  List.iter
    (fun (v : Var.t) ->
      match bld.scopes with
      | scope :: _ -> Hashtbl.replace scope v.base v
      | [] -> assert false)
    params;
  List.iter (lower_stmt bld) f.body;
  (* Implicit return at fall-off-the-end. *)
  (match f.fty with
  | Tvoid -> seal bld (Ir.Ret None)
  | Tint -> seal bld (Ir.Ret (Some (Ir.Cint 0)))
  | Tfloat -> seal bld (Ir.Ret (Some (Ir.Cfloat 0.0))));
  (* Materialise blocks; unsealed blocks are unreachable leftovers. *)
  let blocks =
    Array.init bld.nblocks (fun bid ->
        let blk = Hashtbl.find bld.blocks bid in
        let term = match blk.bterm with Some t -> t | None -> Ir.Ret None in
        { Ir.bid; instrs = List.rev blk.rinstrs; term; preds = [] })
  in
  let fn = { fn_rec with Ir.params; blocks } in
  Ir.recompute_preds fn;
  fn

(* --- CFG cleanup: drop unreachable blocks, renumber densely --- *)

let remap_term map = function
  | Ir.Jump d -> Ir.Jump map.(d)
  | Ir.Br b -> Ir.Br { b with tdst = map.(b.tdst); fdst = map.(b.fdst) }
  | Ir.Ret _ as t -> t

let remap_instr map = function
  | Ir.Def (v, Ir.Phi args) -> (
    (* drop arguments arriving from unreachable predecessors *)
    let args =
      List.filter_map
        (fun (pred, op) -> if map.(pred) >= 0 then Some (map.(pred), op) else None)
        args
    in
    match args with
    | [ (_, single) ] -> Ir.Def (v, Ir.Op single)
    | args -> Ir.Def (v, Ir.Phi args))
  | i -> i

let cleanup (fn : Ir.fn) : Ir.fn =
  let n = Ir.num_blocks fn in
  let reachable = Array.make n false in
  let rec visit bid =
    if not reachable.(bid) then begin
      reachable.(bid) <- true;
      List.iter visit (Ir.successors (Ir.block fn bid).term)
    end
  in
  visit Ir.entry_bid;
  let map = Array.make n (-1) in
  let count = ref 0 in
  for bid = 0 to n - 1 do
    if reachable.(bid) then begin
      map.(bid) <- !count;
      incr count
    end
  done;
  let blocks = Array.make !count (Ir.block fn Ir.entry_bid) in
  for bid = 0 to n - 1 do
    if reachable.(bid) then begin
      let b = Ir.block fn bid in
      blocks.(map.(bid)) <-
        {
          Ir.bid = map.(bid);
          instrs = List.map (remap_instr map) b.instrs;
          term = remap_term map b.term;
          preds = [];
        }
    end
  done;
  let fn = { fn with Ir.blocks } in
  Ir.recompute_preds fn;
  fn

(* --- Critical edge splitting ---
   Ensures each successor of a conditional branch has exactly one
   predecessor, so the SSA pass has a place to put edge assertions. *)

let split_critical_edges (fn : Ir.fn) : Ir.fn =
  let extra = ref [] in
  let next = ref (Ir.num_blocks fn) in
  let split_target dst =
    let mid = !next in
    incr next;
    extra := (mid, dst) :: !extra;
    mid
  in
  Ir.iter_blocks fn (fun b ->
      match b.term with
      | Ir.Br br ->
        let tdst =
          if List.length (Ir.block fn br.tdst).preds > 1 then split_target br.tdst
          else br.tdst
        in
        let fdst =
          if List.length (Ir.block fn br.fdst).preds > 1 then split_target br.fdst
          else br.fdst
        in
        if tdst <> br.tdst || fdst <> br.fdst then b.term <- Ir.Br { br with tdst; fdst }
      | Ir.Jump _ | Ir.Ret _ -> ());
  let extra_blocks =
    List.rev_map
      (fun (bid, dst) -> { Ir.bid; instrs = []; term = Ir.Jump dst; preds = [] })
      !extra
  in
  let blocks = Array.append fn.blocks (Array.of_list (List.rev extra_blocks)) in
  Array.sort (fun (a : Ir.block) b -> Int.compare a.bid b.bid) blocks;
  let fn = { fn with Ir.blocks } in
  Ir.recompute_preds fn;
  fn

let env (p : Vrp_lang.Ast.program) : env =
  let fsigs = Hashtbl.create 16 in
  List.iter
    (fun (name, (s : Vrp_lang.Typecheck.fsig)) ->
      Hashtbl.replace fsigs name { fret = s.ret })
    Vrp_lang.Typecheck.builtins;
  List.iter (fun f -> Hashtbl.replace fsigs f.fname { fret = f.fty }) p.funcs;
  let global_scalars = Hashtbl.create 8 in
  let global_arrays = Hashtbl.create 8 in
  let globals =
    List.map
      (fun g ->
        match g.gsize with
        | None ->
          Hashtbl.replace global_scalars g.gname g.gty;
          { Ir.aname = g.gname; elem_ty = g.gty; size = 1 }
        | Some size ->
          let info = { Ir.aname = g.gname; elem_ty = g.gty; size } in
          Hashtbl.replace global_arrays g.gname info;
          info)
      p.globals
  in
  { env_fsigs = fsigs; env_scalars = global_scalars; env_arrays = global_arrays; globals }

let globals env = env.globals
